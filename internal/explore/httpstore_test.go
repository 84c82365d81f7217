package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"upim/internal/config"
	"upim/internal/engine"
	"upim/internal/estimate"
	"upim/internal/httpjson"
	"upim/internal/prim"
)

// contentAddress is what the store protocol accepts as a key, spelled
// independently of the server's own check.
var contentAddress = regexp.MustCompile(`^[0-9a-f]{64}$`)

// FuzzStoreServer sends one arbitrary request per input — GET or PUT, the
// exact or the estimate endpoint, any key, any body — to a StoreServer over
// one local store, and holds the protocol to its contract: nothing panics; a
// key that is not a content address is a 400; a PUT body that is not exactly
// one wire entry carrying the endpoint's payload is a 400 that stores
// nothing; an accepted PUT is served back, equal, by a GET on its own
// fidelity — an estimate only while the key holds no exact entry
// (never-downgrade) — and never by a GET on the other.
func FuzzStoreServer(f *testing.F) {
	ep := engine.Point{Benchmark: "VA", Config: config.Default(), DPUs: 1, Scale: prim.ScaleTiny}
	res, err := engine.New(1).Run(context.Background(), ep)
	if err != nil {
		f.Fatal(err)
	}
	estimator, err := estimate.New(nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	est, err := estimator.Estimate(ep)
	if err != nil {
		f.Fatal(err)
	}
	exactBody, err := json.Marshal(wireEntry{Point: ep, Result: res})
	if err != nil {
		f.Fatal(err)
	}
	estimateBody, err := json.Marshal(wireEntry{Point: ep, Estimate: est})
	if err != nil {
		f.Fatal(err)
	}
	key := KeyOf(ep)
	// An estimate under a key no exact entry will reach, then the real
	// key's bodies, exact first: both sides of never-downgrade.
	f.Add(true, false, strings.Repeat("e", 64), estimateBody)
	for _, body := range [][]byte{
		exactBody,
		estimateBody,
		exactBody[:len(exactBody)/2],        // truncated
		append(bytes.Clone(exactBody), '}'), // trailing content
		append([]byte(`{"bogus":1,`), exactBody[1:]...), // unknown field
		[]byte(`{"point":{},"result":null}`),
		[]byte(`{"point":{},"estimate":null}`),
	} {
		for _, exact := range []bool{true, false} {
			f.Add(true, exact, key, body)
			f.Add(false, exact, key, body)
		}
	}
	for _, bad := range []string{key[:63], strings.ToUpper(key)} {
		f.Add(true, true, bad, exactBody)
		f.Add(false, false, bad, []byte(nil))
	}

	st, err := OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	srv := NewStoreServer(st)
	do := func(method string, exact bool, key string, body []byte) *httptest.ResponseRecorder {
		path := "/v1/estimate/"
		if exact {
			path = "/v1/exact/"
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(method, path+url.PathEscape(key), bytes.NewReader(body)))
		return w
	}
	// get fetches key at one fidelity: the served entry, or nil on a 404.
	get := func(t *testing.T, exact bool, key string) *wireEntry {
		t.Helper()
		w := do(http.MethodGet, exact, key, nil)
		if w.Code == http.StatusNotFound {
			return nil
		}
		var e wireEntry
		if w.Code != http.StatusOK || httpjson.DecodeStrict(w.Body, &e) != nil {
			t.Fatalf("GET %s (exact=%v): %d %q", key, exact, w.Code, w.Body)
		}
		return &e
	}
	count := func(t *testing.T) int {
		t.Helper()
		n, err := st.Count()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	f.Fuzz(func(t *testing.T, put, exact bool, key string, body []byte) {
		switch key {
		case "", ".", "..":
			return // paths the mux answers itself, before any handler
		}
		method := http.MethodGet
		if put {
			method = http.MethodPut
		}
		valid := contentAddress.MatchString(key)
		var held *wireEntry // the key's exact entry before the request
		if valid {
			held = get(t, true, key)
		}
		before := count(t)
		w := do(method, exact, key, body)
		var e wireEntry
		decoded := httpjson.DecodeStrict(bytes.NewReader(body), &e) == nil
		accepted := decoded && ((exact && e.Result != nil) || (!exact && e.Estimate != nil))
		switch {
		case !valid || (put && !accepted):
			if w.Code != http.StatusBadRequest {
				t.Fatalf("%s key %q body %.120q: %d, want 400", method, key, body, w.Code)
			}
			if n := count(t); n != before {
				t.Fatalf("rejected %s changed the count: %d -> %d", method, before, n)
			}
			return
		case !put:
			if w.Code != http.StatusOK && w.Code != http.StatusNotFound {
				t.Fatalf("GET %s: %d, want 200 or 404", key, w.Code)
			}
			return
		case w.Code != http.StatusNoContent:
			t.Fatalf("PUT %s (exact=%v) of an accepted body: %d %q, want 204", key, exact, w.Code, w.Body)
		}
		gotExact, gotEst := get(t, true, key), get(t, false, key)
		switch {
		case exact:
			if gotExact == nil || !reflect.DeepEqual(gotExact.Result, e.Result) {
				t.Fatalf("GET exact after PUT exact does not return the body's result")
			}
			if gotEst != nil {
				t.Fatalf("GET estimate after PUT exact served an entry")
			}
		case held != nil:
			// Never-downgrade: the exact entry stays, and the estimate is not
			// served.
			if gotEst != nil || gotExact == nil || !reflect.DeepEqual(gotExact.Result, held.Result) {
				t.Fatalf("PUT estimate over an exact entry downgraded it")
			}
		default:
			if gotEst == nil || !reflect.DeepEqual(gotEst.Estimate, e.Estimate) {
				t.Fatalf("GET estimate after PUT estimate does not return the body's estimate")
			}
			if gotExact != nil {
				t.Fatalf("GET exact after PUT estimate served an entry")
			}
		}
	})
}
