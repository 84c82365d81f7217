package coord

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"upim/internal/config"
	"upim/internal/engine"
	"upim/internal/explore"
	"upim/internal/prim"
)

// TestLeaseClientRetryContract pins the lease client's half of the shared
// transport contract: 5xx responses retry, 4xx responses never do, a 409 is
// ErrLeaseLost, and a rejected call reports what the server said.
func TestLeaseClientRetryContract(t *testing.T) {
	inner := NewServer(NewCoordinator(4, CoordinatorOptions{ShardSize: 2, TTL: time.Minute}), SpaceSpec{})
	cases := []struct {
		name string
		// fail answers the first `failures` requests with status and body;
		// later ones reach the real server.
		failures int64
		status   int
		body     string
		call     func(c *Client) error
		wantReqs int64
		check    func(t *testing.T, err error)
	}{
		{
			name: "5xx then 200 retries and succeeds", failures: 2, status: http.StatusServiceUnavailable, body: "transient",
			call: func(c *Client) error {
				u, _, err := c.Lease("w0")
				if err == nil && u == nil {
					return errors.New("no unit granted")
				}
				return err
			},
			wantReqs: 3,
			check: func(t *testing.T, err error) {
				if err != nil {
					t.Fatalf("Lease through a flaky server: %v", err)
				}
			},
		},
		{
			name: "409 is ErrLeaseLost after one request", failures: 99, status: http.StatusConflict, body: ErrLeaseLost.Error(),
			call:     func(c *Client) error { return c.Renew("s0.g1") },
			wantReqs: 1,
			check: func(t *testing.T, err error) {
				if !errors.Is(err, ErrLeaseLost) {
					t.Fatalf("Renew on 409 = %v, want ErrLeaseLost", err)
				}
			},
		},
		{
			name: "400 is not retried and carries the server's text", failures: 99, status: http.StatusBadRequest, body: "lease request names no worker",
			call: func(c *Client) error {
				_, _, err := c.Lease("")
				return err
			},
			wantReqs: 1,
			check: func(t *testing.T, err error) {
				if err == nil || !strings.Contains(err.Error(), "lease request names no worker") {
					t.Fatalf("Lease on 400 = %v, want an error carrying the server's body", err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var reqs atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if reqs.Add(1) <= tc.failures {
					http.Error(w, tc.body, tc.status)
					return
				}
				inner.ServeHTTP(w, r)
			}))
			defer srv.Close()
			c, err := DialCoordinator(srv.URL, ClientOptions{Timeout: 5 * time.Second, Retries: 5, Backoff: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, tc.call(c))
			if got := reqs.Load(); got != tc.wantReqs {
				t.Fatalf("client issued %d requests, want %d", got, tc.wantReqs)
			}
		})
	}
}

// TestOversizedBodiesRefused pins the server-side body caps: a request whose
// body runs past the cap is refused outright — even when a well-formed value
// leads it, which a truncating reader would accept — and changes nothing,
// while well-formed requests on the same routes still succeed.
func TestOversizedBodiesRefused(t *testing.T) {
	store, err := explore.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, c := serve(t, crashSpace(), store, CoordinatorOptions{ShardSize: 2, TTL: time.Minute})

	ep := engine.Point{Benchmark: "VA", Config: config.Default(), DPUs: 1, Scale: prim.ScaleTiny}
	res, err := prim.RunSpec(context.Background(), prim.Spec{Benchmark: ep.Benchmark, Config: ep.Config, DPUs: ep.DPUs, Scale: ep.Scale})
	if err != nil {
		t.Fatal(err)
	}
	key := explore.KeyOf(ep)
	// A record body as the store routes carry it: what another server
	// answers for the key.
	other, err := explore.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Put(key, ep, res); err != nil {
		t.Fatal(err)
	}
	got := httptest.NewRecorder()
	explore.NewStoreServer(other).ServeHTTP(got, httptest.NewRequest(http.MethodGet, "/v1/exact/"+key, nil))
	if got.Code != http.StatusOK {
		t.Fatalf("GET from the other store: %d", got.Code)
	}
	record := got.Body.Bytes()

	// One byte past each route's cap (a 64 MiB record behind its 8-byte
	// fingerprint and 8-byte length and checksum; 1 MiB lease bodies),
	// padded with bytes a truncating reader would never look at.
	for _, tc := range []struct {
		method, path string
		lead         []byte
		limit        int
	}{
		{http.MethodPut, "/v1/exact/" + key, record, 64<<20 + 16},
		{http.MethodPost, "/v1/lease", []byte(`{"worker":"w0"}`), 1 << 20},
	} {
		body := io.MultiReader(bytes.NewReader(tc.lead), strings.NewReader(strings.Repeat(" ", tc.limit+1-len(tc.lead))))
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, body)
		if err != nil {
			t.Fatal(err)
		}
		// A transport error is as good as a 4xx here: either way the server
		// refused, and the state checks below prove nothing landed.
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s with an oversized body: status %d, want 400", tc.method, tc.path, resp.StatusCode)
			}
			if !resp.Close {
				t.Errorf("%s %s with an oversized body: connection left open", tc.method, tc.path)
			}
		}
	}
	if n, err := store.Count(); err != nil || n != 0 {
		t.Fatalf("store holds %d entries after refused writes (err %v), want 0", n, err)
	}
	if st := c.Snapshot(); st.Leased != 0 {
		t.Fatalf("%d shards leased after a refused lease request, want 0", st.Leased)
	}

	// The same routes still serve well-formed requests.
	hs, err := explore.DialStore(srv.URL, explore.HTTPStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := hs.Put(key, ep, res); err != nil {
		t.Fatalf("well-formed Put: %v", err)
	}
	if _, ok := store.Get(key); !ok {
		t.Fatal("well-formed Put did not land in the store")
	}
	lc, err := DialCoordinator(srv.URL, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if u, _, err := lc.Lease("w0"); err != nil || u == nil {
		t.Fatalf("well-formed Lease = %v, %v; want a unit", u, err)
	}
}
