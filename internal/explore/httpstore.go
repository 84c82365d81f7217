package explore

import (
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"

	"upim/internal/engine"
	"upim/internal/estimate"
	"upim/internal/httpjson"
	"upim/internal/prim"
)

// The HTTP store protocol — the wire form of the Backend interface, served
// by `pathfind serve` and consumed by HTTPStore. One endpoint per Backend
// method, keyed by the same content addresses as the local store:
//
//	GET    /v1/exact/{key}      200 {point,result} | 404
//	PUT    /v1/exact/{key}      body {point,result}            -> 204
//	GET    /v1/estimate/{key}   200 {point,estimate} | 404
//	PUT    /v1/estimate/{key}   body {point,estimate}          -> 204
//	GET    /v1/count            200 {"count":N}
//	GET    /v1/stats            200 StoreStats (the server store's counters)
//
// Fidelity isolation and never-downgrade are enforced server-side by the
// wrapped Backend, so a store shared by many workers keeps the same
// semantics as a local directory shared by many processes.

// wireEntry is the request/response body of the exact and estimate
// endpoints: the point for debuggability plus exactly one payload.
type wireEntry struct {
	Point    engine.Point       `json:"point"`
	Result   *prim.Result       `json:"result,omitempty"`
	Estimate *estimate.Estimate `json:"estimate,omitempty"`
}

// maxEntryBody caps store entry bodies in both directions: a full result
// with per-DPU stats is a few hundred KiB, so 64 MiB is far above any honest
// entry and far below what would hurt the server.
const maxEntryBody = 64 << 20

// StoreServer serves a Backend over the HTTP store protocol.
type StoreServer struct {
	backend Backend
	mux     *http.ServeMux
}

// NewStoreServer wraps a backend (typically a local Store) in the HTTP store
// protocol handler.
func NewStoreServer(b Backend) *StoreServer {
	s := &StoreServer{backend: resolveBackend(b)}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /v1/exact/{key}", s.getExact)
	s.mux.HandleFunc("PUT /v1/exact/{key}", s.putExact)
	s.mux.HandleFunc("GET /v1/estimate/{key}", s.getEstimate)
	s.mux.HandleFunc("PUT /v1/estimate/{key}", s.putEstimate)
	s.mux.HandleFunc("GET /v1/count", s.count)
	s.mux.HandleFunc("GET /v1/stats", s.stats)
	return s
}

func (s *StoreServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// reqKey validates the path key: a content address is 64 lowercase hex
// characters, and anything else is rejected before it reaches the backend.
func reqKey(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.PathValue("key")
	if len(key) != 64 || strings.Trim(key, "0123456789abcdef") != "" {
		http.Error(w, "malformed store key", http.StatusBadRequest)
		return "", false
	}
	return key, true
}

func (s *StoreServer) getExact(w http.ResponseWriter, r *http.Request) {
	key, ok := reqKey(w, r)
	if !ok {
		return
	}
	res, ok := s.backend.Get(key)
	if !ok {
		http.Error(w, "no exact entry", http.StatusNotFound)
		return
	}
	httpjson.Write(w, wireEntry{Result: res})
}

func (s *StoreServer) getEstimate(w http.ResponseWriter, r *http.Request) {
	key, ok := reqKey(w, r)
	if !ok {
		return
	}
	est, ok := s.backend.GetEstimate(key)
	if !ok {
		http.Error(w, "no estimate entry", http.StatusNotFound)
		return
	}
	httpjson.Write(w, wireEntry{Estimate: est})
}

func (s *StoreServer) putExact(w http.ResponseWriter, r *http.Request) {
	key, ok := reqKey(w, r)
	if !ok {
		return
	}
	var e wireEntry
	if err := httpjson.Decode(w, r, maxEntryBody, &e); err != nil || e.Result == nil {
		http.Error(w, "want a JSON body with point and result", http.StatusBadRequest)
		return
	}
	if err := s.backend.Put(key, e.Point, e.Result); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *StoreServer) putEstimate(w http.ResponseWriter, r *http.Request) {
	key, ok := reqKey(w, r)
	if !ok {
		return
	}
	var e wireEntry
	if err := httpjson.Decode(w, r, maxEntryBody, &e); err != nil || e.Estimate == nil {
		http.Error(w, "want a JSON body with point and estimate", http.StatusBadRequest)
		return
	}
	if err := s.backend.PutEstimate(key, e.Point, e.Estimate); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *StoreServer) count(w http.ResponseWriter, r *http.Request) {
	n, err := s.backend.Count()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	httpjson.Write(w, struct {
		Count int `json:"count"`
	}{n})
}

func (s *StoreServer) stats(w http.ResponseWriter, r *http.Request) {
	httpjson.Write(w, s.backend.Stats())
}

// HTTPStoreOptions tune an HTTPStore client: per-call timeout, retry count
// and backoff, and an HTTP client override.
type HTTPStoreOptions = httpjson.Options

// HTTPStore is the client side of the HTTP store protocol: a Backend whose
// entries live on a `pathfind serve` store server, shared by every worker
// that connects to it. Every call carries a timeout and retries transient
// failures with exponential backoff; like every backend, unrecoverable Get
// failures degrade to misses (re-simulation) while Put failures surface.
type HTTPStore struct {
	c *httpjson.Client

	hits, misses, puts atomic.Int64
}

// DialStore builds an HTTP store client for a base URL like
// "http://host:9090". No request is issued until the first call.
func DialStore(baseURL string, opts HTTPStoreOptions) (*HTTPStore, error) {
	c, err := httpjson.Dial(baseURL, maxEntryBody, opts)
	if err != nil {
		return nil, fmt.Errorf("explore: store: %w", err)
	}
	return &HTTPStore{c: c}, nil
}

// do issues one store call. 404 returns (false, nil): a miss, not an error.
func (h *HTTPStore) do(method, path string, body, out any) (bool, error) {
	err := h.c.Do(method, path, body, out)
	if httpjson.IsStatus(err, http.StatusNotFound) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("explore: %w", err)
	}
	return true, nil
}

// Get implements Backend. Transport failures (after retries) and undecodable
// responses degrade to misses — re-simulation is correct, serving nothing as
// something is not.
func (h *HTTPStore) Get(key string) (*prim.Result, bool) {
	var e wireEntry
	ok, err := h.do(http.MethodGet, "/v1/exact/"+key, nil, &e)
	if err != nil || !ok || e.Result == nil {
		h.misses.Add(1)
		return nil, false
	}
	h.hits.Add(1)
	return e.Result, true
}

// GetEstimate implements Backend with the same degradation as Get.
func (h *HTTPStore) GetEstimate(key string) (*estimate.Estimate, bool) {
	var e wireEntry
	ok, err := h.do(http.MethodGet, "/v1/estimate/"+key, nil, &e)
	if err != nil || !ok || e.Estimate == nil {
		h.misses.Add(1)
		return nil, false
	}
	h.hits.Add(1)
	return e.Estimate, true
}

// Put implements Backend; failures surface so the point is recorded as
// failed and retried by the next run.
func (h *HTTPStore) Put(key string, p engine.Point, res *prim.Result) error {
	if res == nil {
		return fmt.Errorf("explore: refusing to store a nil result for %s", key)
	}
	if _, err := h.do(http.MethodPut, "/v1/exact/"+key, wireEntry{Point: p, Result: res}, nil); err != nil {
		return err
	}
	h.puts.Add(1)
	return nil
}

// PutEstimate implements Backend; the server enforces never-downgrade.
func (h *HTTPStore) PutEstimate(key string, p engine.Point, est *estimate.Estimate) error {
	if est == nil {
		return fmt.Errorf("explore: refusing to store a nil estimate for %s", key)
	}
	if _, err := h.do(http.MethodPut, "/v1/estimate/"+key, wireEntry{Point: p, Estimate: est}, nil); err != nil {
		return err
	}
	h.puts.Add(1)
	return nil
}

// Stats snapshots this client's counters (not the server store's — use
// ServerStats for those). Corrupt entries are only observable server-side:
// they surface here as misses, and Corrupt stays 0.
func (h *HTTPStore) Stats() StoreStats {
	return StoreStats{Hits: h.hits.Load(), Misses: h.misses.Load(), Puts: h.puts.Load()}
}

// ServerStats fetches the server store's own counters, including the corrupt
// count the local client can never see.
func (h *HTTPStore) ServerStats() (StoreStats, error) {
	var st StoreStats
	if _, err := h.do(http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return StoreStats{}, err
	}
	return st, nil
}

// Count implements Backend by asking the server.
func (h *HTTPStore) Count() (int, error) {
	var c struct {
		Count int `json:"count"`
	}
	if _, err := h.do(http.MethodGet, "/v1/count", nil, &c); err != nil {
		return 0, err
	}
	return c.Count, nil
}
