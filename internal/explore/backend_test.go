package explore_test

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"upim/internal/engine"
	"upim/internal/explore"
	"upim/internal/explore/storetest"
	"upim/internal/host"
	"upim/internal/prim"
)

func storetestPoint() engine.Point {
	return engine.Point{Benchmark: "VA", DPUs: 1, Scale: prim.ScaleTiny}
}

func storetestResult() *prim.Result {
	return &prim.Result{Benchmark: "VA", Tasklets: 1, DPUs: 1, Report: host.Report{KernelSeconds: 1e-3, Launches: 1}}
}

// corruptLocal scribbles over the on-disk entry of a local store.
func corruptLocal(t *testing.T, b explore.Backend, key string) {
	t.Helper()
	if err := b.(*explore.Store).CorruptEntry(key); err != nil {
		t.Fatal(err)
	}
}

// TestLocalStoreConformance runs the backend conformance suite against the
// local-dir store.
func TestLocalStoreConformance(t *testing.T) {
	storetest.Run(t, storetest.Harness{
		New: func(t *testing.T) explore.Backend {
			s, err := explore.OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		Corrupt: corruptLocal,
		Peer: func(t *testing.T, b explore.Backend) explore.Backend {
			s, err := explore.OpenStore(b.(*explore.Store).Dir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	})
}

// httpHarness serves a fresh local store over the HTTP protocol per subtest
// and hands back the connected client. Corruption happens server-side — the
// client must observe the degradation purely through the wire.
func httpHarness(t *testing.T) storetest.Harness {
	servers := map[explore.Backend]*explore.Store{}
	// serve opens its own handle on dir, serves it, and dials it.
	serve := func(t *testing.T, dir string) explore.Backend {
		st, err := explore.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(explore.NewStoreServer(st))
		t.Cleanup(srv.Close)
		client, err := explore.DialStore(srv.URL, explore.HTTPStoreOptions{
			Timeout: 5 * time.Second,
			Backoff: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		servers[client] = st
		return client
	}
	return storetest.Harness{
		New: func(t *testing.T) explore.Backend { return serve(t, t.TempDir()) },
		// Two servers sharing one directory, each with its own clients.
		Peer: func(t *testing.T, b explore.Backend) explore.Backend { return serve(t, servers[b].Dir()) },
		Corrupt: func(t *testing.T, b explore.Backend, key string) {
			t.Helper()
			if err := servers[b].CorruptEntry(key); err != nil {
				t.Fatal(err)
			}
		},
		// Reads execute in the server process, so the corrupt counter the
		// accounting subtest must watch is the server store's, not the
		// client's.
		CorruptCount: func(t *testing.T, b explore.Backend) int64 {
			return servers[b].Stats().Corrupt
		},
	}
}

// TestHTTPStoreConformance runs the same conformance suite against the HTTP
// backend: the semantics of a shared remote store must be indistinguishable
// from a shared local directory.
func TestHTTPStoreConformance(t *testing.T) {
	storetest.Run(t, httpHarness(t))
}

// TestHTTPStoreRetriesTransientFailures pins the retry/backoff contract:
// 5xx responses and dropped connections retry, so a Put through a flaky
// server still lands.
func TestHTTPStoreRetriesTransientFailures(t *testing.T) {
	dir, err := explore.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inner := explore.NewStoreServer(dir)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Fail the first two attempts of every call with a retryable status.
		if calls.Add(1)%3 != 0 {
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	client, err := explore.DialStore(srv.URL, explore.HTTPStoreOptions{
		Timeout: 5 * time.Second,
		Retries: 3,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := "00000000000000000000000000000000000000000000000000000000000000aa"
	if err := client.Put(key, storetestPoint(), storetestResult()); err != nil {
		t.Fatalf("Put through a flaky server: %v", err)
	}
	if _, ok := client.Get(key); !ok {
		t.Fatal("Get through a flaky server missed")
	}
}

// TestHTTPStoreDoesNotRetryClientErrors pins the other half: a 4xx means
// the request itself is wrong, and retrying would only re-send the mistake.
func TestHTTPStoreDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "malformed store key", http.StatusBadRequest)
	}))
	defer srv.Close()
	client, err := explore.DialStore(srv.URL, explore.HTTPStoreOptions{
		Timeout: 5 * time.Second,
		Retries: 5,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Put("not-a-key", storetestPoint(), storetestResult()); err == nil {
		t.Fatal("Put to a rejecting server succeeded")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("client issued %d requests for a 4xx; want exactly 1 (no retries)", got)
	}
}

// TestHTTPStoreGetDegradesOnDeadServer: a Get against an unreachable server
// is a miss, not a hang or a crash — the explorer re-simulates.
func TestHTTPStoreGetDegradesOnDeadServer(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close() // nothing listens anymore
	client, err := explore.DialStore(url, explore.HTTPStoreOptions{
		Timeout: 500 * time.Millisecond,
		Retries: 1,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := "00000000000000000000000000000000000000000000000000000000000000bb"
	if _, ok := client.Get(key); ok {
		t.Fatal("Get against a dead server claimed a hit")
	}
	if err := client.Put(key, storetestPoint(), storetestResult()); err == nil {
		t.Fatal("Put against a dead server reported success")
	}
}
