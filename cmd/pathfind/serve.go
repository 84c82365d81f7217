package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"upim"
)

// runServe serves a result store over HTTP — and, when space flags are
// given, a lease-protocol coordinator over that space — so `pathfind work
// -connect URL` processes on other machines can drain the exploration.
func runServe(args []string) int {
	fs := flag.NewFlagSet("pathfind serve", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "localhost:7070", "listen address")
		storeDir = fs.String("store", "", "result store directory to serve (required)")
		bench    = fs.String("bench", "", "comma-separated benchmarks of the coordinated space; empty serves the store only, with no coordinator")
		axesSpec = fs.String("axes", defaultAxes, "design axes of the coordinated space")
		scale    = fs.String("scale", "tiny", "dataset scale: tiny, small or paper")
		dpus     = fs.Int("dpus", 1, "base DPU count (a dpus axis overrides it)")
		shard    = fs.Int("shard", 0, "points per leased shard (0 = default)")
		ttl      = fs.Duration("ttl", 10*time.Second, "lease time-to-live; workers renewing slower than this lose their shard")
		events   = fs.String("events", "", "append the JSONL coordination events log to this file")
	)
	_ = fs.Parse(args)
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "pathfind serve: -store is required (the served result store)")
		return 2
	}
	store, err := upim.OpenResultStore(*storeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathfind serve:", err)
		return 1
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	var handler http.Handler
	var handle *upim.CoordHandle
	if *bench == "" {
		handler = upim.NewResultStoreServer(store)
		fmt.Fprintf(os.Stderr, "pathfind serve: store %s on %s (store only; add -bench for a coordinator)\n", *storeDir, *addr)
	} else {
		sc, err := upim.ParseScale(*scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pathfind serve:", err)
			return 2
		}
		axes, err := upim.ParseAxes(*axesSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pathfind serve:", err)
			return 2
		}
		space := upim.NewDesignSpace(strings.Split(*bench, ","), axes...)
		space.Scale = sc
		space.DPUs = *dpus
		var eventsW io.Writer
		if *events != "" {
			ef, ferr := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if ferr != nil {
				fmt.Fprintln(os.Stderr, "pathfind serve:", ferr)
				return 1
			}
			defer ef.Close()
			eventsW = ef
		}
		handler, handle, err = upim.ServeCoordinator(space, store,
			0, upim.CoordinatorOptions{ShardSize: *shard, TTL: *ttl}, eventsW)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pathfind serve:", err)
			return 2
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
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "pathfind serve:", err)
				return 1
			}
			return 0
		case <-ctx.Done():
			shutdown(srv)
			fmt.Fprintln(os.Stderr, "pathfind serve: interrupted")
			return 1
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
				n, _ := store.Count()
				fmt.Fprintf(os.Stderr, "pathfind serve: all %d shards done; store %s holds %d points\n",
					st.Shards, *storeDir, n)
				return 0
			}
		}
	}
}

func shutdown(srv *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
}

// runWork runs one remote worker process against a serving coordinator.
func runWork(args []string) int {
	fs := flag.NewFlagSet("pathfind work", flag.ExitOnError)
	var (
		connect = fs.String("connect", "", "coordinator base URL, e.g. http://host:7070 (required)")
		name    = fs.String("name", "", "worker name in leases and events (default \"worker\")")
		events  = fs.String("events", "", "append this worker's JSONL events log to a file")
	)
	_ = fs.Parse(args)
	if *connect == "" {
		fmt.Fprintln(os.Stderr, "pathfind work: -connect is required (the coordinator URL)")
		return 2
	}
	opts := upim.WorkOptions{Connect: *connect, Name: *name}
	if *events != "" {
		ef, err := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pathfind work:", err)
			return 1
		}
		defer ef.Close()
		opts.Events = ef
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	if err := upim.Work(ctx, opts); err != nil {
		fmt.Fprintln(os.Stderr, "pathfind work:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "pathfind work: all shards done")
	return 0
}
