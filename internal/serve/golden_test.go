package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"upim/internal/artifact"
	"upim/internal/prim"
)

var update = flag.Bool("update", false, "rewrite testdata/loadsweep.golden")

// TestLoadSweepGolden pins, byte for byte, the serving tables at a scale the
// refdata's 16-request runs do not reach: the repo benchmark's serve_sweep
// shape scaled down to 2 000 requests per tenant (fifo, wfq and slo at four
// loads, two of them overloads), the same sweep under admission control so
// that overload drops, and the request and summary tables of one contended
// slo run. Each table is one `name length sha256` line of its JSON. Regenerate
// with `go test ./internal/serve -run LoadSweepGolden -update`, and only for a
// change meant to move a serving result.
func TestLoadSweepGolden(t *testing.T) {
	ctx := context.Background()
	opts := Options{
		Tenants: []Tenant{
			{Name: "latency", Mix: []string{"VA", "GEMV"}, Weight: 3, SLOClass: "latency"},
			{Name: "batch", Mix: []string{"BS", "RED"}, Weight: 1, SLOClass: "batch"},
		},
		Groups: 2, MaxBatch: 4, Requests: 2000, Seed: 1, Scale: prim.ScaleTiny, Parallelism: 2,
	}
	policies, loads := []string{"fifo", "wfq", "slo"}, []float64{0.5, 0.8, 0.95, 1.1}

	tables := map[string]*artifact.Table{}
	sweep, err := LoadSweep(ctx, opts, policies, loads)
	if err != nil {
		t.Fatal(err)
	}
	tables["loadsweep"] = sweep

	bounded := opts
	bounded.MaxQueue = 16
	if tables["loadsweep-maxqueue"], err = LoadSweep(ctx, bounded, policies, loads); err != nil {
		t.Fatal(err)
	}

	contended := bounded
	contended.Load = 1.1
	if contended.Policy, err = NewPolicy("slo", contended.Tenants); err != nil {
		t.Fatal(err)
	}
	res, err := Serve(ctx, contended)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.Dropped == 0 {
		t.Fatal("the contended slo run dropped nothing: admission control is not exercised")
	}
	tables["serve-slo-requests"], tables["serve-slo-summary"] = res.RequestTable(), res.SummaryTable()

	var got strings.Builder
	for _, name := range []string{"loadsweep", "loadsweep-maxqueue", "serve-slo-requests", "serve-slo-summary"} {
		var buf bytes.Buffer
		if err := tables[name].WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %d %x\n", name, buf.Len(), sha256.Sum256(buf.Bytes()))
	}

	path := filepath.Join("testdata", "loadsweep.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("serving tables moved:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
