package explore

import (
	"bytes"
	"context"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"upim/internal/config"
	"upim/internal/engine"
	"upim/internal/estimate"
	"upim/internal/httpjson"
	"upim/internal/prim"
)

// contentAddress is what the store protocol accepts as a key, spelled
// independently of the server's own check.
var contentAddress = regexp.MustCompile(`^[0-9a-f]{64}$`)

// wireValue splits a store-route body by the wire layout — fingerprint, then
// n u32 | crc u32 | key [32] | fidelity u8 | point length u32 | point | value
// — spelled apart from the server's parser. It returns the point and value
// bytes when every field checks for key at the route's fidelity and both
// decode with nothing left over.
func wireValue(body []byte, key string, exact bool) (point, value []byte, ok bool) {
	pl, fid, dst := estimatePlan, byte(2), any(new(estimate.Estimate))
	if exact {
		pl, fid, dst = resultPlan, 1, new(prim.Result)
	}
	k, ok := parseKey(key)
	if !ok || len(body) < 8+45 || !bytes.Equal(body[:8], schema[:]) {
		return nil, nil, false
	}
	rec := body[8:]
	tab := crc32.MakeTable(crc32.Castagnoli)
	n, crc := le.Uint32(rec), le.Uint32(rec[4:])
	if int(n) != len(rec)-8 || crc != crc32.Update(crc32.Checksum(rec[:4], tab), tab, rec[8:]) ||
		!bytes.Equal(rec[8:40], k[:]) || rec[40] != fid {
		return nil, nil, false
	}
	np := int(le.Uint32(rec[41:]))
	if np > len(rec)-45 {
		return nil, nil, false
	}
	point, value = rec[45:45+np], rec[45+np:]
	if rest, err := pointPlan.decode(point, new(engine.Point)); err != nil || len(rest) != 0 {
		return nil, nil, false
	}
	if rest, err := pl.decode(value, dst); err != nil || len(rest) != 0 {
		return nil, nil, false
	}
	return point, value, true
}

// flipped returns b with the byte at i inverted.
func flipped(b []byte, i int) []byte {
	b = bytes.Clone(b)
	b[i] = ^b[i]
	return b
}

// FuzzStoreServer sends one arbitrary request per input — GET or PUT, the
// exact or the estimate endpoint, any key, any body — to a StoreServer over
// one local store, and holds the protocol to its contract: nothing panics; a
// key that is not a content address is a 400; a PUT body that is not this
// build's record for the key at the endpoint's fidelity is a 4xx that stores
// nothing; a GET that answers carries such a record; an accepted PUT is
// served back, equal, by a GET on its own fidelity — an estimate only while
// the key holds no exact entry (never-downgrade) — and never by a GET on the
// other.
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
	key, other := KeyOf(ep), strings.Repeat("e", 64)
	exactBody, err := wire(key, fidExact, &ep, resultPlan, res)
	if err != nil {
		f.Fatal(err)
	}
	estimateBody, err := wire(key, fidEstimate, &ep, estimatePlan, est)
	if err != nil {
		f.Fatal(err)
	}
	otherKeyBody, err := wire(other, fidExact, &ep, resultPlan, res)
	if err != nil {
		f.Fatal(err)
	}
	// An estimate under a key no exact entry will reach, then the real
	// key's bodies, exact first: both sides of never-downgrade. Each body
	// goes to both endpoints, so each is also sent at the other fidelity.
	otherEstimate, err := wire(other, fidEstimate, &ep, estimatePlan, est)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(true, false, other, otherEstimate)
	for _, body := range [][]byte{
		exactBody,
		estimateBody,
		exactBody[:len(exactBody)/2],      // truncated
		append(bytes.Clone(exactBody), 0), // a trailing byte
		flipped(exactBody, len(schema)+5), // the CRC flipped
		flipped(estimateBody, 3),          // the fingerprint flipped
		otherKeyBody,                      // another key's record
		nil,                               // empty
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
	// get fetches key at one fidelity: the served value's bytes, or nil on a
	// 404.
	get := func(t *testing.T, exact bool, key string) []byte {
		t.Helper()
		w := do(http.MethodGet, exact, key, nil)
		if w.Code == http.StatusNotFound {
			return nil
		}
		_, v, ok := wireValue(w.Body.Bytes(), key, exact)
		if w.Code != http.StatusOK || !ok {
			t.Fatalf("GET %s (exact=%v): %d, body %.120q does not check", key, exact, w.Code, w.Body)
		}
		return v
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
		var held []byte // the key's exact entry before the request
		if valid {
			held = get(t, true, key)
		}
		before := count(t)
		w := do(method, exact, key, body)
		_, value, accepted := wireValue(body, key, exact)
		switch {
		case !valid || (put && !accepted):
			if w.Code < 400 || w.Code > 499 {
				t.Fatalf("%s key %q body %.120q: %d, want a 4xx", method, key, body, w.Code)
			}
			if !valid && w.Code != http.StatusBadRequest {
				t.Fatalf("%s malformed key %q: %d, want 400", method, key, w.Code)
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
			if !bytes.Equal(gotExact, value) {
				t.Fatalf("GET exact after PUT exact does not return the body's result")
			}
			if gotEst != nil {
				t.Fatalf("GET estimate after PUT exact served an entry")
			}
		case held != nil:
			// Never-downgrade: the exact entry stays, and the estimate is not
			// served.
			if gotEst != nil || !bytes.Equal(gotExact, held) {
				t.Fatalf("PUT estimate over an exact entry downgraded it")
			}
		default:
			if !bytes.Equal(gotEst, value) {
				t.Fatalf("GET estimate after PUT estimate does not return the body's estimate")
			}
			if gotExact != nil {
				t.Fatalf("GET exact after PUT estimate served an entry")
			}
		}
	})
}

// TestStoreServerRefusesForeignRecords: a record body is checked against
// this build's struct layout before anything is stored or served. A JSON
// body that names a few fields, as the wire form before records did, and a
// record framed under another schema fingerprint — what a worker built with
// another prim.Result layout sends — are both 4xx refusals that store
// nothing, where the JSON form stored the first as an exact result with 0
// cycles. The client's Put surfaces the refusal after one request (a 4xx is
// never retried), and its Get takes a record under another fingerprint for a
// miss.
func TestStoreServerRefusesForeignRecords(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewStoreServer(st)
	p := engine.Point{Benchmark: "VA", Config: config.Default(), DPUs: 1, Scale: prim.ScaleTiny}
	key := KeyOf(p)
	partial := `{"point":{"Benchmark":"VA"},"result":{"Benchmark":"VA","Tasklets":16}}`
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPut, "/v1/exact/"+key, strings.NewReader(partial)))
	if w.Code < 400 || w.Code > 499 {
		t.Errorf("PUT of a partial JSON entry: %d, want a 4xx", w.Code)
	}

	// A proxy that flips one fingerprint byte of every body, both ways.
	flip := func(b []byte) {
		if len(b) >= len(schema) {
			b[len(schema)-1] ^= 1
		}
	}
	var calls atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		flip(body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		got := httptest.NewRecorder()
		srv.ServeHTTP(got, r)
		flip(got.Body.Bytes())
		w.WriteHeader(got.Code)
		_, _ = w.Write(got.Body.Bytes())
	}))
	defer proxy.Close()
	client, err := DialStore(proxy.URL, HTTPStoreOptions{Timeout: 5 * time.Second, Retries: 5, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res := &prim.Result{Benchmark: "VA", Tasklets: 16, DPUs: 1}
	res.Stats.Cycles = 12345
	err = client.Put(key, p, res)
	if !httpjson.IsStatus(err, http.StatusBadRequest) {
		t.Errorf("Put under another fingerprint = %v, want a 400", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("Put under another fingerprint issued %d requests, want 1", n)
	}
	if n, err := st.Count(); err != nil || n != 0 {
		t.Fatalf("store holds %d entries after refused puts (err %v), want 0", n, err)
	}
	if err := st.Put(key, p, res); err != nil {
		t.Fatal(err)
	}
	if _, ok := client.Get(key); ok || client.Stats().Misses != 1 {
		t.Fatalf("a record under another fingerprint was served (stats %+v)", client.Stats())
	}
}
