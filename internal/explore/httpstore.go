package explore

import (
	"fmt"
	"io"
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
//	GET    /v1/exact/{key}      200 record | 404
//	PUT    /v1/exact/{key}      body record                    -> 204
//	GET    /v1/estimate/{key}   200 record | 404
//	PUT    /v1/estimate/{key}   body record                    -> 204
//	GET    /v1/count            200 {"count":N}
//	GET    /v1/stats            200 StoreStats (the server store's counters)
//
// A record is a segment's schema fingerprint, then one framed record
// (segment.go), checked as a store read checks one on disk and for this
// build's fingerprint, the path's key and the route's fidelity: a PUT that
// fails is a 400 that stores nothing, a GET that fails is a miss. A GET's
// point slot holds the zero point; every reader skips it. Fidelity isolation
// and never-downgrade are enforced server-side by the wrapped Backend, so a
// store shared by many workers keeps the semantics of a shared directory.

// maxEntryBody caps record bodies in both directions: the fingerprint and the
// largest record a segment admits.
const maxEntryBody = int64(len(schema) + recPrefixLen + maxRecord)

// wire frames one record for the store routes.
func wire(key string, fid byte, p *engine.Point, pl *plan, v any) ([]byte, error) {
	_, rec, err := frame(key, fid, p, pl, v)
	if err != nil {
		return nil, err
	}
	defer recBufs.Put(rec)
	return append(schema[:len(schema):len(schema)], *rec...), nil
}

// unwire checks a record body for key at fid and decodes its value into
// *dst and, when p is not nil, its point into *p.
func unwire(body []byte, key string, fid byte, pl *plan, dst any, p *engine.Point) bool {
	k, ok := parseKey(key)
	if !ok || len(body) < len(schema) || [len(schema)]byte(body) != schema {
		return false
	}
	pt, ok := decodeRecord(body[len(schema):], k, fid, pl, dst)
	if !ok || p == nil {
		return ok
	}
	rest, err := pointPlan.decode(pt, p)
	return err == nil && len(rest) == 0
}

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
	route(s.mux, "/v1/exact/", fidExact, resultPlan, s.backend.Get, s.backend.Put)
	route(s.mux, "/v1/estimate/", fidEstimate, estimatePlan, s.backend.GetEstimate, s.backend.PutEstimate)
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

// route serves one fidelity's records under path.
func route[T any](mux *http.ServeMux, path string, fid byte, pl *plan, get func(string) (*T, bool), put func(string, engine.Point, *T) error) {
	mux.HandleFunc("GET "+path+"{key}", func(w http.ResponseWriter, r *http.Request) {
		key, ok := reqKey(w, r)
		if !ok {
			return
		}
		v, ok := get(key)
		if !ok {
			http.Error(w, "no entry", http.StatusNotFound)
			return
		}
		body, err := wire(key, fid, &engine.Point{}, pl, v)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(body) // a failed write means the client is gone
	})
	mux.HandleFunc("PUT "+path+"{key}", func(w http.ResponseWriter, r *http.Request) {
		key, ok := reqKey(w, r)
		if !ok {
			return
		}
		p, v := engine.Point{}, new(T)
		// An oversized body is refused, not truncated, and the connection closed.
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxEntryBody))
		if err != nil || !unwire(body, key, fid, pl, v, &p) {
			http.Error(w, "want the key's record at this route's fidelity under this build's schema", http.StatusBadRequest)
			return
		}
		if err := put(key, p, v); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
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

// fetch serves key at one fidelity. A 404, a failed call or a body that
// fails a check is a miss: re-simulating is correct, serving nothing as
// something is not.
func fetch[T any](h *HTTPStore, path, key string, fid byte, pl *plan) (*T, bool) {
	var body []byte
	if v := new(T); h.c.Do(http.MethodGet, path+key, nil, &body) == nil && unwire(body, key, fid, pl, v, nil) {
		h.hits.Add(1)
		return v, true
	}
	h.misses.Add(1)
	return nil, false
}

// send puts one record at one fidelity; failures surface so the point is
// recorded as failed and retried by the next run.
func send[T any](h *HTTPStore, path, key string, fid byte, p engine.Point, pl *plan, v *T) error {
	if v == nil {
		return fmt.Errorf("explore: refusing to store a nil %T for %s", v, key)
	}
	body, err := wire(key, fid, &p, pl, v)
	if err != nil {
		return err
	}
	if err := h.c.Do(http.MethodPut, path+key, body, nil); err != nil {
		return fmt.Errorf("explore: %w", err)
	}
	h.puts.Add(1)
	return nil
}

// Get implements Backend.
func (h *HTTPStore) Get(key string) (*prim.Result, bool) {
	return fetch[prim.Result](h, "/v1/exact/", key, fidExact, resultPlan)
}

// GetEstimate implements Backend.
func (h *HTTPStore) GetEstimate(key string) (*estimate.Estimate, bool) {
	return fetch[estimate.Estimate](h, "/v1/estimate/", key, fidEstimate, estimatePlan)
}

// Put implements Backend.
func (h *HTTPStore) Put(key string, p engine.Point, res *prim.Result) error {
	return send(h, "/v1/exact/", key, fidExact, p, resultPlan, res)
}

// PutEstimate implements Backend; the server enforces never-downgrade.
func (h *HTTPStore) PutEstimate(key string, p engine.Point, est *estimate.Estimate) error {
	return send(h, "/v1/estimate/", key, fidEstimate, p, estimatePlan, est)
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
	if err := h.c.Do(http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return StoreStats{}, fmt.Errorf("explore: %w", err)
	}
	return st, nil
}

// Count implements Backend by asking the server.
func (h *HTTPStore) Count() (int, error) {
	var c struct {
		Count int `json:"count"`
	}
	if err := h.c.Do(http.MethodGet, "/v1/count", nil, &c); err != nil {
		return 0, fmt.Errorf("explore: %w", err)
	}
	return c.Count, nil
}
