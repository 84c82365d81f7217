package upim

import (
	"context"
	"io"
	"net/http"

	"upim/internal/coord"
	"upim/internal/explore"
)

// Coordination — sharded multi-worker exploration. A coordinator slices the
// deterministic point enumeration of a DesignSpace into leased work units,
// workers drain them through a shared StoreBackend under heartbeat renewal,
// dead workers lose their leases and their shards re-queue, and a final
// merge pass over the populated store assembles the Exploration — so a
// coordinated run emits byte-identical artifacts to a single-process one
// over the same space. Run in-process (CoordinatedExplore), or serve the
// lease protocol and the store over HTTP (ServeCoordinator + Work) to spread
// one exploration across processes and machines. See cmd/pathfind
// (-coordinator, serve, work) for the CLI front end.

// StoreBackend is the pluggable result-store interface explorations read and
// write through: the local content-addressed directory store (ResultStore)
// and the HTTP client store (HTTPResultStore) both implement it, as can any
// user backend honoring the fidelity contract (exact results never downgrade
// to estimates; undecodable entries degrade to misses and count in Stats).
type StoreBackend = explore.Backend

// HTTPResultStore is a StoreBackend speaking to a remote result-store server
// with per-call timeouts and retry/backoff on transient failures.
type HTTPResultStore = explore.HTTPStore

// HTTPResultStoreOptions tune an HTTPResultStore client.
type HTTPResultStoreOptions = explore.HTTPStoreOptions

// ResultStoreServer serves any StoreBackend over HTTP for remote workers.
type ResultStoreServer = explore.StoreServer

// DialResultStore prepares an HTTP result-store client for baseURL (no I/O
// until the first call).
func DialResultStore(baseURL string, opts HTTPResultStoreOptions) (*HTTPResultStore, error) {
	return explore.DialStore(baseURL, opts)
}

// NewResultStoreServer wraps a backend in its HTTP server handler.
func NewResultStoreServer(b StoreBackend) *ResultStoreServer { return explore.NewStoreServer(b) }

// CoordOptions parameterize a coordinated exploration.
type CoordOptions = coord.Options

// CoordProgress is one live snapshot of a coordinated exploration (streamed
// to CoordOptions.OnProgress).
type CoordProgress = coord.Progress

// CoordStatus is the lease-level coordination snapshot.
type CoordStatus = coord.Status

// CoordEvent is one line of the machine-readable coordination events log.
type CoordEvent = coord.Event

// CoordinatedExplore explores the space with opts.Workers coordinated
// workers sharing opts.Store, returning the same Exploration (and, when
// opts.Tiered is set, Triage) a single-process Explore/ExploreTiered over
// the same space would: the artifacts are byte-identical by construction.
func CoordinatedExplore(ctx context.Context, space *DesignSpace, opts CoordOptions) (*Exploration, *ExploreTriage, error) {
	return coord.Run(ctx, space, opts)
}

// ParseCoordEvents reads back a JSONL coordination events log, tolerating
// the torn line a killed run leaves, also when a rerun appended to the same
// log.
func ParseCoordEvents(r io.Reader) ([]CoordEvent, error) { return coord.ParseEvents(r) }

// CoordinatorOptions tune a served Coordinator (shard size, lease TTL).
type CoordinatorOptions = coord.CoordinatorOptions

// ServeCoordinator builds the HTTP handler for one coordinated exploration
// served to remote workers: the lease protocol for the space plus the result
// store under /v1/, composed on one mux so `pathfind work -connect URL` needs
// a single address. The exploration's watchdog travels in the spec so
// workers compute identical store keys. Spaces with programmatic Constrain
// filters cannot be served (constraints do not serialize) and are refused.
func ServeCoordinator(space *DesignSpace, backend StoreBackend, watchdog uint64, copts CoordinatorOptions, events io.Writer) (http.Handler, *CoordHandle, error) {
	if events != nil {
		copts.Events = coord.NewLog(events)
	}
	h, c, err := coord.Handler(space, backend, watchdog, copts)
	if err != nil {
		return nil, nil, err
	}
	return h, &CoordHandle{c}, nil
}

// CoordHandle observes a served coordination run.
type CoordHandle struct{ c *coord.Coordinator }

// Status snapshots lease-level progress.
func (h *CoordHandle) Status() CoordStatus { return h.c.Snapshot() }

// Done reports whether every shard has completed.
func (h *CoordHandle) Done() bool { return h.c.Done() }

// Points is the total point count of the served space.
func (h *CoordHandle) Points() int { return h.c.Snapshot().Points }

// WorkOptions configure one remote worker process.
type WorkOptions = coord.WorkOptions

// Work runs one remote worker against a serving coordinator until all
// shards complete: it fetches the space spec, enumerates the same points
// locally, and drains leased shards through the HTTP store at the same
// address. Remote workers run exact fidelity only.
func Work(ctx context.Context, opts WorkOptions) error { return coord.Work(ctx, opts) }
