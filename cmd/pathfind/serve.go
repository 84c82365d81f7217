package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"upim"
	"upim/internal/cli"
)

// serve serves a result store over HTTP — and, when space flags are given,
// a lease-protocol coordinator over that space — so `pathfind work -connect
// URL` processes on other machines can drain the exploration.
func serve(fs *flag.FlagSet) func(context.Context) error {
	var (
		sp       spaceFlags
		addr     = fs.String("addr", "localhost:7070", "listen address")
		storeDir = fs.String("store", "", "result store directory to serve (required)")
		shard    = fs.Int("shard", 0, "points per leased shard (0 = default)")
		ttl      = fs.Duration("ttl", 10*time.Second, "lease time-to-live; workers renewing slower than this lose their shard")
		events   = fs.String("events", "", "append the JSONL coordination events log to this file")
	)
	sp.register(fs)
	sp.sim.RegisterScale(fs)
	fs.Lookup("bench").Usage = "comma-separated benchmarks of the coordinated space; empty serves the store only, with no coordinator"
	fs.Lookup("axes").Usage = "design axes of the coordinated space"
	return func(ctx context.Context) error {
		if *storeDir == "" {
			return cli.Usagef("-store is required (the served result store)")
		}
		store, err := upim.OpenResultStore(*storeDir)
		if err != nil {
			return err
		}

		var handler http.Handler
		var handle *upim.CoordHandle
		if *sp.bench == "" {
			handler = upim.NewResultStoreServer(store)
			fmt.Fprintf(os.Stderr, "pathfind serve: store %s on %s (store only; add -bench for a coordinator)\n", *storeDir, *addr)
		} else {
			space, err := sp.space()
			if err != nil {
				return err
			}
			eventsW, closeEvents, err := openEvents(*events)
			if err != nil {
				return err
			}
			defer closeEvents()
			handler, handle, err = upim.ServeCoordinator(space, store,
				0, upim.CoordinatorOptions{ShardSize: *shard, TTL: *ttl}, eventsW)
			if err != nil {
				return cli.Usage(err)
			}
			fmt.Fprintf(os.Stderr, "pathfind serve: coordinating %d points over store %s on %s\n",
				handle.Points(), *storeDir, *addr)
		}

		// Fixed bounds on what a slow or idle peer can hold open; request bodies
		// are capped per route by the handlers.
		srv := &http.Server{
			Addr:              *addr,
			Handler:           handler,
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		errc := make(chan error, 1)
		go func() { errc <- srv.ListenAndServe() }()

		// Poll coordination progress; exit once every shard completes (store-only
		// servers run until interrupted).
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		var lastLine string
		for {
			select {
			case err := <-errc:
				if errors.Is(err, http.ErrServerClosed) {
					return nil
				}
				return err
			case <-ctx.Done():
				shutdown(srv)
				return errors.New("interrupted")
			case <-tick.C:
				if handle == nil {
					continue
				}
				st := handle.Status()
				line := fmt.Sprintf("pathfind serve: shards %d/%d done, %d leased, %d pending",
					st.Done, st.Shards, st.Leased, st.Pending)
				if line != lastLine {
					fmt.Fprintln(os.Stderr, line)
					lastLine = line
				}
				if st.AllDone {
					shutdown(srv)
					if n, cerr := store.Count(); cerr != nil {
						fmt.Fprintf(os.Stderr, "pathfind serve: all %d shards done; store %s: %v\n", st.Shards, *storeDir, cerr)
					} else {
						fmt.Fprintf(os.Stderr, "pathfind serve: all %d shards done; store %s holds %d points\n", st.Shards, *storeDir, n)
					}
					return nil
				}
			}
		}
	}
}

// openEvents opens a JSONL events log for appending. An empty path is no
// log: a nil writer and a no-op close.
func openEvents(path string) (io.Writer, func(), error) {
	if path == "" {
		return nil, func() {}, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

func shutdown(srv *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
}

// work runs one remote worker process against a serving coordinator.
func work(fs *flag.FlagSet) func(context.Context) error {
	var (
		connect = fs.String("connect", "", "coordinator base URL, e.g. http://host:7070 (required)")
		name    = fs.String("name", "", "worker name in leases and events (default \"worker\")")
		events  = fs.String("events", "", "append this worker's JSONL events log to a file")
	)
	return func(ctx context.Context) error {
		if *connect == "" {
			return cli.Usagef("-connect is required (the coordinator URL)")
		}
		opts := upim.WorkOptions{Connect: *connect, Name: *name}
		var err error
		var closeEvents func()
		if opts.Events, closeEvents, err = openEvents(*events); err != nil {
			return err
		}
		defer closeEvents()
		if err := upim.Work(ctx, opts); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "pathfind work: all shards done")
		return nil
	}
}
