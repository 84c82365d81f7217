package explore

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"upim/internal/engine"
	"upim/internal/estimate"
	"upim/internal/prim"
	"upim/internal/stats"
)

// treeOf lists every file under dir with its size, for "nothing was written"
// checks.
func treeOf(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	files := map[string]int64{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		files[path] = info.Size()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func fabKey(i int) string { return fmt.Sprintf("%064x", 0x5e600000+i) }

func fabPoint(i int) engine.Point {
	return engine.Point{Benchmark: "VA", DPUs: 1 + i%4, Scale: prim.ScaleTiny}
}

func fabResult(i int) *prim.Result {
	return &prim.Result{Benchmark: "VA", Tasklets: 1 + i%16, DPUs: 1 + i%4,
		Stats: stats.DPU{Cycles: uint64(1000 + i)}, PerDPU: []stats.DPU{{Cycles: uint64(1000 + i), Timeline: []float32{float32(i)}}}}
}

func fabEstimate(i int) *estimate.Estimate {
	return &estimate.Estimate{Calibration: "fabricated", KernelCycles: float64(1000 + i)}
}

// TestExactBeatsEstimateAcrossHandles pins index resolution by rule: an
// exact record beats an estimate for its key in every handle, whichever was
// written, scanned or opened first. First in sequence — handle B, opened
// before A's Put and so holding a stale index, PutEstimates A's key — then
// with the two writes racing on 500 fresh keys.
//
// The race is the one this layout closes. The per-file store of commit
// ba20999 checked for an exact entry and then renamed its estimate into
// place, and a Put landing between the two was overwritten; the racing half
// of this test, against that store (2 000 keys), printed
//
//	parent: 600 of 2000 keys downgraded (exact Put lost to a racing PutEstimate)
func TestExactBeatsEstimateAcrossHandles(t *testing.T) {
	dir := t.TempDir()
	open := func() *Store {
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := open(), open()
	check := func(key string, handles ...*Store) {
		t.Helper()
		for i, st := range handles {
			if res, ok := st.Get(key); !ok || res.Stats.Cycles == 0 {
				t.Fatalf("handle %d: the exact result for %s was not served (%v)", i, key[56:], ok)
			}
			if _, ok := st.GetEstimate(key); ok {
				t.Fatalf("handle %d: an estimate for %s is served over its exact result", i, key[56:])
			}
		}
	}

	if err := a.Put(fabKey(0), fabPoint(0), fabResult(0)); err != nil {
		t.Fatal(err)
	}
	if err := b.PutEstimate(fabKey(0), fabPoint(0), fabEstimate(0)); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().Puts; got != 0 {
		t.Errorf("the stale handle wrote %d records; its PutEstimate should have found the exact one first", got)
	}
	check(fabKey(0), a, b, open())

	// An estimate that did land beside an exact record — the interleaving the
	// check cannot exclude — loses in every handle all the same.
	k, rec, err := frame(fabKey(1), fidEstimate, new(engine.Point), estimatePlan, fabEstimate(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(fabKey(1), fabPoint(1), fabResult(1)); err != nil {
		t.Fatal(err)
	}
	if err := b.append(k, fidEstimate, *rec); err != nil {
		t.Fatal(err)
	}
	check(fabKey(1), a, b, open())

	const racing = 500
	for i := 2; i < 2+racing; i++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := a.Put(fabKey(i), fabPoint(i), fabResult(i)); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := b.PutEstimate(fabKey(i), fabPoint(i), fabEstimate(i)); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
	}
	c := open()
	for i := 2; i < 2+racing; i++ {
		check(fabKey(i), a, b, c)
	}
	for i, st := range []*Store{a, b, c} {
		if n, err := st.Count(); err != nil || n != 2+racing {
			t.Errorf("handle %d: Count = %d, %v; want %d distinct keys", i, n, err, 2+racing)
		}
	}
}

// writerEnv carries "dir lo hi torn" to the re-executed test binary.
const writerEnv = "UPIM_EXPLORE_TEST_WRITER"

// TestWriterProcess is not a test of its own: re-executed by
// TestTwoWritersOneDirectory with writerEnv set, it is one writer process —
// it puts keys lo..hi-1 into the store and, told to, dies halfway through
// writing one more record.
func TestWriterProcess(t *testing.T) {
	spec := strings.Fields(os.Getenv(writerEnv))
	if len(spec) != 4 {
		return
	}
	lo, _ := strconv.Atoi(spec[1])
	hi, _ := strconv.Atoi(spec[2])
	st, err := OpenStore(spec[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := lo; i < hi; i++ {
		if err := st.Put(fabKey(i), fabPoint(i), fabResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if spec[3] == "torn" {
		_, rec, err := frame(fabKey(hi), fidExact, new(engine.Point), resultPlan, fabResult(hi))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.own.f.Write((*rec)[:len(*rec)/2]); err != nil {
			t.Fatal(err)
		}
		os.Exit(0) // killed mid-record
	}
}

// TestTwoWritersOneDirectory is ROADMAP 2(d): two writer processes — this
// test binary, re-executed — put disjoint and overlapping keys into one
// store while this process's handle reads it. Afterwards every key is served
// from every handle and counted once, and the writer that died mid-record
// left a torn tail that is skipped, booked corrupt once per handle however
// often the directory is re-checked — and not at all while it could still be
// a write in flight — and never appended after.
func TestTwoWritersOneDirectory(t *testing.T) {
	dir := t.TempDir()
	reader, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 100 // writer 1 puts 0..59, writer 2 puts 40..99 and is killed writing 100
	var writers [2]*exec.Cmd
	for i, spec := range []string{"0 60 clean", "40 100 torn"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestWriterProcess$")
		cmd.Env = append(os.Environ(), writerEnv+"="+dir+" "+spec)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		writers[i] = cmd
	}
	done := make(chan error, len(writers))
	for _, cmd := range writers {
		go func() { done <- cmd.Wait() }()
	}
	served := map[int]bool{}
	for exited := 0; exited < len(writers); {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("writer process: %v", err)
			}
			exited++
		default:
		}
		for i := 0; i < keys; i++ {
			if res, ok := reader.Get(fabKey(i)); ok {
				if !reflect.DeepEqual(res, fabResult(i)) {
					t.Fatalf("key %d read back as %+v while being written", i, res)
				}
				served[i] = true
			}
		}
	}
	t.Logf("%d of %d keys were served while the writers ran", len(served), keys)
	if got := reader.Stats().Corrupt; got != 0 {
		t.Errorf("%d half-written records were booked corrupt while their writers ran", got)
	}

	// The writers are gone; let tornAge pass for their segments.
	for path := range treeOf(t, dir) {
		age(t, path)
	}
	late, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Store{"reader": reader, "late": late} {
		for i := 0; i <= keys; i++ {
			res, ok := st.Get(fabKey(i))
			if ok != (i < keys) {
				t.Fatalf("%s handle: key %d served = %v", name, i, ok)
			}
			if ok && !reflect.DeepEqual(res, fabResult(i)) {
				t.Fatalf("%s handle: key %d read back as %+v", name, i, res)
			}
		}
		if n, err := st.Count(); err != nil || n != keys {
			t.Errorf("%s handle: Count = %d, %v; want %d distinct keys", name, n, err, keys)
		}
		if got := st.Stats().Corrupt; got != 1 {
			t.Errorf("%s handle booked the torn tail %d times, want once", name, got)
		}
	}

	// New records go to the putting handle's own segment: the torn one, and
	// every other, keeps its length.
	before := treeOf(t, dir)
	if len(before) != len(writers) {
		t.Fatalf("%d segment files, want one per writer: %v", len(before), before)
	}
	if err := late.Put(fabKey(keys), fabPoint(keys), fabResult(keys)); err != nil {
		t.Fatal(err)
	}
	after := treeOf(t, dir)
	for path, size := range before {
		if after[path] != size {
			t.Errorf("%s grew from %d to %d bytes after its writer was gone", path, size, after[path])
		}
	}
	if len(after) != len(before)+1 {
		t.Errorf("%d files after the late handle's first Put, want %d", len(after), len(before)+1)
	}
	if _, ok := reader.Get(fabKey(keys)); !ok {
		t.Error("the reader missed a key put after the torn tail was seen")
	}
}

// segmentOf assembles a segment image: the header for fp and the records.
func segmentOf(fp [8]byte, recs ...[]byte) []byte {
	img := append([]byte(segMagic), fp[:]...)
	for _, r := range recs {
		img = append(img, r...)
	}
	return img
}

// fabRecord frames a fabricated record; fid picks the payload type (any
// value but fidEstimate frames a result).
func fabRecord(t testing.TB, i int, fid byte) []byte {
	p := fabPoint(i)
	pl, v := resultPlan, any(fabResult(i))
	if fid == fidEstimate {
		pl, v = estimatePlan, fabEstimate(i)
	}
	_, rec, err := frame(fabKey(i), fid, &p, pl, v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(*rec)
}

// age backdates a segment's last write past tornAge, so that a tail that
// does not frame is its dead writer's and not a write in flight.
func age(t testing.TB, path string) {
	t.Helper()
	if err := os.Chtimes(path, time.Time{}, time.Now().Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}
}

// openImage opens a store whose one segment holds img.
func openImage(t testing.TB, img []byte) *Store {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, segDirName), 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segDirName, "image"+segSuffix)
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	age(t, path)
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSegmentScanSkipsWhatItCannotServe walks the ways a segment can hold
// bytes that must not be served: a fidelity tag this build does not know, a
// record copied under another key, a schema fingerprint from another build,
// a torn tail.
func TestSegmentScanSkipsWhatItCannotServe(t *testing.T) {
	good, est := fabRecord(t, 1, fidExact), fabRecord(t, 2, fidEstimate)

	t.Run("intact", func(t *testing.T) {
		st := openImage(t, segmentOf(schema, good, est))
		if res, ok := st.Get(fabKey(1)); !ok || !reflect.DeepEqual(res, fabResult(1)) {
			t.Fatalf("exact record: %+v, %v", res, ok)
		}
		if e, ok := st.GetEstimate(fabKey(2)); !ok || *e != *fabEstimate(2) {
			t.Fatalf("estimate record: %+v, %v", e, ok)
		}
		if got := st.Stats(); got.Corrupt != 0 {
			t.Fatalf("stats %+v", got)
		}
	})

	t.Run("unknown fidelity", func(t *testing.T) {
		// Framed by this code, so its checksum holds: only the tag is new.
		st := openImage(t, segmentOf(schema, fabRecord(t, 1, 7), est))
		if _, ok := st.Get(fabKey(1)); ok {
			t.Fatal("a record of unknown fidelity was served as exact")
		}
		if _, ok := st.GetEstimate(fabKey(1)); ok {
			t.Fatal("a record of unknown fidelity was served as an estimate")
		}
		if _, ok := st.GetEstimate(fabKey(2)); !ok {
			t.Fatal("the record after it was lost")
		}
		if got := st.Stats().Corrupt; got != 1 {
			t.Fatalf("corrupt = %d, want the one record", got)
		}
	})

	t.Run("copied under another key", func(t *testing.T) {
		moved := bytes.Clone(good)
		k, _ := parseKey(fabKey(3))
		copy(moved[recPrefixLen:], k[:])
		st := openImage(t, segmentOf(schema, moved))
		if _, ok := st.Get(fabKey(3)); ok {
			t.Fatal("key 1's result was served for key 3")
		}
		if got := st.Stats(); got.Corrupt != 1 || got.Misses != 1 {
			t.Fatalf("stats %+v, want one corrupt miss", got)
		}
		if _, ok := st.Get(fabKey(3)); ok || st.Stats().Corrupt != 1 {
			t.Fatalf("the dropped record was read again: %+v", st.Stats())
		}
	})

	t.Run("another schema", func(t *testing.T) {
		fp := schema
		fp[0] ^= 1
		st := openImage(t, segmentOf(fp, good, est))
		if _, ok := st.Get(fabKey(1)); ok {
			t.Fatal("a record framed under another schema fingerprint was decoded")
		}
		if n, _ := st.Count(); n != 0 || st.Stats().Corrupt != 1 {
			t.Fatalf("Count = %d, stats %+v; want an empty store and the segment booked once", n, st.Stats())
		}
	})

	t.Run("torn tail", func(t *testing.T) {
		for cut := 1; cut < len(est); cut += 7 {
			st := openImage(t, segmentOf(schema, good, est[:cut]))
			if _, ok := st.Get(fabKey(1)); !ok {
				t.Fatalf("cut %d: the whole record before the torn one was lost", cut)
			}
			for range 3 { // each miss re-checks the directory
				if _, ok := st.GetEstimate(fabKey(2)); ok {
					t.Fatalf("cut %d: a torn record was served", cut)
				}
			}
			if got := st.Stats().Corrupt; got != 1 {
				t.Fatalf("cut %d: the torn tail was booked %d times", cut, got)
			}
		}
	})
}

// FuzzSegmentScan opens a store over arbitrary bytes as its one segment. The
// scan and every read after it must not panic; no indexed record may reach
// past the file (a read allocates its record's length, so that bounds every
// allocation by the file); and nothing is served unless the segment carries
// this build's schema fingerprint and the record's checksum, key and
// fidelity all check. Seeds: testdata/fuzz/FuzzSegmentScan (whole segments,
// torn and damaged ones, another schema's) beside the few here.
func FuzzSegmentScan(f *testing.F) {
	good, est := fabRecord(f, 1, fidExact), fabRecord(f, 2, fidEstimate)
	f.Add([]byte{})
	f.Add(segmentOf(schema))
	f.Add(segmentOf(schema, good, est))
	f.Add(segmentOf(schema, good, est[:len(est)/2]))
	f.Fuzz(func(t *testing.T, img []byte) {
		st := openImage(t, img)
		ours := len(img) >= segHeaderLen && string(img[:segHeaderLen]) == segMagic+string(schema[:])
		if !ours && len(st.idx) != 0 {
			t.Fatalf("%d records indexed from a file that is not this schema's segment", len(st.idx))
		}
		for k, l := range st.idx {
			if l.off < int64(segHeaderLen) || l.n < recHeaderLen || l.off+int64(l.n) > int64(len(img)) {
				t.Fatalf("indexed record [%d, +%d) is outside the %d-byte file", l.off, l.n, len(img))
			}
			rec := img[l.off : l.off+int64(l.n)]
			sound := le.Uint32(rec)+recPrefixLen == l.n && le.Uint32(rec[4:]) == checksum(rec) &&
				storeKey(rec[recPrefixLen:]) == k && rec[recHeaderLen-1] == l.fid
			key := fmt.Sprintf("%x", k[:])
			_, exact := st.Get(key)
			_, estimated := st.GetEstimate(key)
			if (exact || estimated) && !sound {
				t.Fatalf("record at %d served though its frame, checksum, key or fidelity does not check", l.off)
			}
			if exact && l.fid != fidExact || estimated && l.fid != fidEstimate {
				t.Fatalf("record at %d of fidelity %d served as exact=%v estimate=%v", l.off, l.fid, exact, estimated)
			}
		}
		if _, ok := st.Get(fabKey(99)); ok {
			t.Fatal("a key in no record was served")
		}
		if _, err := st.Count(); err != nil {
			t.Fatal(err)
		}
	})
}

var update = flag.Bool("update", false, "rewrite testdata/vocab.golden, testdata/report.golden and the seed corpora under testdata/fuzz")

// TestFuzzSeedCorpora keeps the committed seeds of FuzzSegmentScan and
// FuzzRecordCodec real: they are cut from a segment a Store wrote while a
// two-tier exploration of VA ran through it, its observer storing each
// estimate as the point resolves so the segment holds both fidelities. The
// segment is deterministic,
// so the test is that the committed files are what this build writes — a
// stored struct that gained a field (which needs a storeFormat bump too)
// fails here until `go test ./internal/explore -run FuzzSeedCorpora -update`.
func TestFuzzSeedCorpora(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	space := NewSpace([]string{"VA"}, Tasklets(1, 16), ILP("base", "DRSF"))
	space.Scale = prim.ScaleTiny
	var putErr error
	record := func(o Outcome) {
		if o.Fidelity == FidelityEstimate && putErr == nil {
			putErr = st.PutEstimate(o.Key, o.Point.EP, o.Estimate)
		}
	}
	x, _, err := New(Options{Parallelism: 1, Store: st, OnOutcome: record}).ExploreTiered(context.Background(), space, TieredOptions{})
	if err == nil {
		err = putErr
	}
	if err != nil || x.Estimated == 0 || x.Simulated == 0 {
		t.Fatalf("seed exploration: %v, %+v", err, x)
	}
	img, err := os.ReadFile(st.own.path)
	if err != nil {
		t.Fatal(err)
	}
	var exact, est loc // the last record of each fidelity
	for _, l := range st.idx {
		if l.fid == fidExact && l.off > exact.off {
			exact = l
		} else if l.fid == fidEstimate && l.off > est.off {
			est = l
		}
	}
	damaged := bytes.Clone(img)
	damaged[exact.off+int64(exact.n)/2] ^= 0x40
	otherSchema := bytes.Clone(img)
	otherSchema[len(segMagic)] ^= 1
	hugeLength := bytes.Clone(img)
	le.PutUint32(hugeLength[segHeaderLen:], 0xfffffff0)
	payload := func(l loc) (point, value []byte) {
		b := img[l.off+recHeaderLen : l.off+int64(l.n)]
		n := le.Uint32(b)
		return b[4 : 4+n], b[4+n:]
	}
	point, result := payload(exact)
	_, estimated := payload(est)

	seeds := map[string]string{
		"FuzzSegmentScan/exploration":  fmt.Sprintf("[]byte(%q)\n", img),
		"FuzzSegmentScan/torn":         fmt.Sprintf("[]byte(%q)\n", img[:len(img)-int(est.n)/3]),
		"FuzzSegmentScan/damaged":      fmt.Sprintf("[]byte(%q)\n", damaged),
		"FuzzSegmentScan/other-schema": fmt.Sprintf("[]byte(%q)\n", otherSchema),
		"FuzzSegmentScan/huge-length":  fmt.Sprintf("[]byte(%q)\n", hugeLength),
		"FuzzRecordCodec/result":       fmt.Sprintf("uint8(0)\n[]byte(%q)\n", result),
		"FuzzRecordCodec/estimate":     fmt.Sprintf("uint8(1)\n[]byte(%q)\n", estimated),
		"FuzzRecordCodec/point":        fmt.Sprintf("uint8(2)\n[]byte(%q)\n", point),
	}
	for name, body := range seeds {
		path := filepath.Join("testdata", "fuzz", name)
		body = "go test fuzz v1\n" + body
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != body {
			t.Errorf("%s is not what this build writes (%v): regenerate with -update", path, err)
		}
	}
}
