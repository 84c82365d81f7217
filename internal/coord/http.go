package coord

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"upim/internal/explore"
	"upim/internal/httpjson"
	"upim/internal/prim"
)

// SpaceSpec is the serializable description of a design space the lease
// protocol ships to remote workers. It covers spaces over the default base
// configuration; programmatic Constrain filters and mutated base configs
// cannot travel over the wire — a worker handed such a space would enumerate
// different point indices than the coordinator, so SpecFor refuses them.
type SpaceSpec struct {
	Benchmarks []string `json:"benchmarks"`
	// Axes is the FormatAxes form of the space's design axes; empty means an
	// axis-less space.
	Axes  string `json:"axes,omitempty"`
	Scale string `json:"scale"`
	DPUs  int    `json:"dpus"`
	// Watchdog is the exploration's watchdog bound — part of store keys, so
	// workers must agree on it.
	Watchdog uint64 `json:"watchdog,omitempty"`
}

// SpecFor captures a space (plus the exploration watchdog) as a wire spec.
func SpecFor(space *explore.Space, watchdog uint64) (SpaceSpec, error) {
	if space.Constrained() {
		return SpaceSpec{}, fmt.Errorf("coord: constrained spaces cannot be served to remote workers (constraints are functions and do not serialize); filter with axis levels instead")
	}
	return SpaceSpec{
		Benchmarks: space.Benchmarks,
		Axes:       explore.FormatAxes(space.Axes),
		Scale:      space.Scale.String(),
		DPUs:       space.DPUs,
		Watchdog:   watchdog,
	}, nil
}

// Space reconstructs the explore.Space a spec describes.
func (s SpaceSpec) Space() (*explore.Space, error) {
	if len(s.Benchmarks) == 0 {
		return nil, fmt.Errorf("coord: space spec has no benchmarks")
	}
	scale, err := prim.ParseScale(s.Scale)
	if err != nil {
		return nil, fmt.Errorf("coord: space spec: %w", err)
	}
	var axes []explore.Axis
	if s.Axes != "" {
		if axes, err = explore.ParseAxes(s.Axes); err != nil {
			return nil, fmt.Errorf("coord: space spec: %w", err)
		}
	}
	sp := explore.NewSpace(s.Benchmarks, axes...)
	sp.Scale = scale
	if s.DPUs > 0 {
		sp.DPUs = s.DPUs
	}
	return sp, nil
}

// leaseRequest/leaseResponse/renewRequest are the lease protocol bodies.
type leaseRequest struct {
	Worker string `json:"worker"`
}
type leaseResponse struct {
	// Unit is the granted work unit; nil with Done false means poll again.
	Unit *WorkUnit `json:"unit,omitempty"`
	Done bool      `json:"done"`
}
type renewRequest struct {
	Lease string `json:"lease"`
}

// Server exposes a Coordinator and its space spec over HTTP:
//
//	GET  /v1/space     -> SpaceSpec
//	POST /v1/lease     {"worker": "..."} -> {"unit": ..., "done": bool}
//	POST /v1/renew     {"lease": "..."}  -> 204, or 409 on a stale lease
//	POST /v1/complete  {"lease": "..."}  -> 204, or 409 on a stale lease
//	GET  /v1/status    -> Status
//
// Stale-lease rejections map to 409 Conflict so clients can distinguish
// "your lease is gone" (give up the shard) from transport failures (retry).
// Handler composes it with the result store on one address.
type Server struct {
	c    *Coordinator
	spec SpaceSpec
	mux  *http.ServeMux
}

// NewServer serves coordination for one space.
func NewServer(c *Coordinator, spec SpaceSpec) *Server {
	s := &Server{c: c, spec: spec, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /v1/space", s.handleSpace)
	s.mux.HandleFunc("POST /v1/lease", s.handleLease)
	s.mux.HandleFunc("POST /v1/renew", func(w http.ResponseWriter, r *http.Request) { s.handleLeaseOp(w, r, c.Renew) })
	s.mux.HandleFunc("POST /v1/complete", func(w http.ResponseWriter, r *http.Request) { s.handleLeaseOp(w, r, c.Complete) })
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Register attaches the coordination routes to an external mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.Handle("/v1/space", s)
	mux.Handle("/v1/lease", s)
	mux.Handle("/v1/renew", s)
	mux.Handle("/v1/complete", s)
	mux.Handle("/v1/status", s)
}

// Handler serves one coordinated exploration to remote workers: a
// Coordinator over the space's points speaking the lease protocol, and the
// backend's result store under /v1/, on one mux so `pathfind work -connect
// URL` needs a single address (the lease routes are more specific, so they
// win). The exploration's watchdog travels in the spec so workers compute
// identical store keys. Spaces with programmatic Constrain filters cannot be
// served (constraints do not serialize) and are refused.
func Handler(space *explore.Space, backend explore.Backend, watchdog uint64, opts CoordinatorOptions) (http.Handler, *Coordinator, error) {
	spec, err := SpecFor(space, watchdog)
	if err != nil {
		return nil, nil, err
	}
	pts, err := space.Points()
	if err != nil {
		return nil, nil, err
	}
	c := NewCoordinator(len(pts), opts)
	mux := http.NewServeMux()
	NewServer(c, spec).Register(mux)
	mux.Handle("/v1/", explore.NewStoreServer(backend))
	return mux, c, nil
}

// maxLeaseBody caps lease-protocol bodies in both directions; the largest
// honest one is a work unit of a few hundred bytes.
const maxLeaseBody = 1 << 20

// decodeInto strictly decodes a small JSON request body, answering 400
// itself when the body is malformed or oversized.
func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := httpjson.Decode(w, r, maxLeaseBody, v); err != nil {
		http.Error(w, "malformed request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (s *Server) handleSpace(w http.ResponseWriter, r *http.Request) {
	httpjson.Write(w, s.spec)
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if req.Worker == "" {
		http.Error(w, "lease request names no worker", http.StatusBadRequest)
		return
	}
	if u := s.c.Lease(req.Worker); u != nil {
		httpjson.Write(w, leaseResponse{Unit: u})
		return
	}
	httpjson.Write(w, leaseResponse{Done: s.c.Done()})
}

func (s *Server) handleLeaseOp(w http.ResponseWriter, r *http.Request, op func(string) error) {
	var req renewRequest
	if !decodeInto(w, r, &req) {
		return
	}
	switch err := op(req.Lease); {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, ErrLeaseLost), errors.Is(err, ErrUnknownLease):
		http.Error(w, err.Error(), http.StatusConflict)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	httpjson.Write(w, s.c.Snapshot())
}

// ClientOptions tune a coordination Client — the same per-call timeout,
// retry and backoff options as the store client, so one value configures
// both halves of a remote worker.
type ClientOptions = httpjson.Options

// Client speaks the lease protocol to a served Coordinator (Handler). It
// implements LeaseClient.
type Client struct{ c *httpjson.Client }

// DialCoordinator prepares a lease-protocol client for baseURL (no I/O yet).
func DialCoordinator(baseURL string, opts ClientOptions) (*Client, error) {
	c, err := httpjson.Dial(baseURL, maxLeaseBody, opts)
	if err != nil {
		return nil, fmt.Errorf("coord: coordinator: %w", err)
	}
	return &Client{c: c}, nil
}

// call runs one lease-protocol round trip. A 409 is the protocol's "your
// lease is gone" and maps back to ErrLeaseLost; it is a 4xx, so it is never
// retried.
func (c *Client) call(method, path string, body, out any) error {
	err := c.c.Do(method, path, body, out)
	if httpjson.IsStatus(err, http.StatusConflict) {
		return ErrLeaseLost
	}
	if err != nil {
		return fmt.Errorf("coord: %w", err)
	}
	return nil
}

// Spec fetches the served space spec.
func (c *Client) Spec() (SpaceSpec, error) {
	var spec SpaceSpec
	if err := c.call(http.MethodGet, "/v1/space", nil, &spec); err != nil {
		return SpaceSpec{}, err
	}
	return spec, nil
}

// Lease implements LeaseClient: it requests the next shard, decoding the
// body strictly and re-validating the unit on the way in — a worker never
// trusts a wire unit (FuzzLeaseCodec holds this boundary to its contract).
func (c *Client) Lease(worker string) (*WorkUnit, bool, error) {
	var resp leaseResponse
	if err := c.call(http.MethodPost, "/v1/lease", leaseRequest{Worker: worker}, &resp); err != nil {
		return nil, false, err
	}
	if resp.Unit != nil {
		if err := resp.Unit.Validate(); err != nil {
			return nil, false, err
		}
	}
	return resp.Unit, resp.Done, nil
}

// Renew implements LeaseClient. A 409 maps back to ErrLeaseLost.
func (c *Client) Renew(lease string) error {
	return c.call(http.MethodPost, "/v1/renew", renewRequest{Lease: lease}, nil)
}

// Complete implements LeaseClient. A 409 maps back to ErrLeaseLost.
func (c *Client) Complete(lease string) error {
	return c.call(http.MethodPost, "/v1/complete", renewRequest{Lease: lease}, nil)
}

// WorkOptions configure one remote worker process (pathfind work).
type WorkOptions struct {
	// Connect is the coordinator/store base URL (one server serves both).
	Connect string
	// Name identifies this worker in leases and events (default "worker").
	Name string
	// Poll is how long an idle worker waits between lease attempts
	// (default 100ms).
	Poll time.Duration
	// Events, when non-nil, receives this worker's JSONL events.
	Events io.Writer
	// Client tunes the lease and store HTTP clients.
	Client ClientOptions
}

// Work runs one remote worker against a serving coordinator: fetch the space
// spec, enumerate the same points locally, open the HTTP store at the same
// address, and drain shards until the coordinator reports all work done.
// Remote workers run exact-fidelity only — tiered band planning stays with
// the in-process coordinator.
func Work(ctx context.Context, opts WorkOptions) error {
	if ctx == nil {
		ctx = context.Background()
	}
	name := opts.Name
	if name == "" {
		name = "worker"
	}
	api, err := DialCoordinator(opts.Connect, opts.Client)
	if err != nil {
		return err
	}
	spec, err := api.Spec()
	if err != nil {
		return fmt.Errorf("coord: fetching space spec from %s: %w", opts.Connect, err)
	}
	space, err := spec.Space()
	if err != nil {
		return err
	}
	pts, err := space.Points()
	if err != nil {
		return err
	}
	store, err := explore.DialStore(opts.Connect, opts.Client)
	if err != nil {
		return err
	}
	poll := opts.Poll
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	var log *Log
	if opts.Events != nil {
		log = NewLog(opts.Events)
	}
	w := &worker{
		name: name,
		api:  api,
		ex:   explore.New(explore.Options{Parallelism: 1, Watchdog: spec.Watchdog, Store: store}),
		pts:  pts,
		log:  log,
		poll: poll,
	}
	return w.run(ctx)
}
