package upim_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"upim"
)

// TestExplorePublicAPI drives the pathfinding surface end to end through
// the public package: parse axes, build a space, explore it twice against
// one store, and extract the artifact tables.
func TestExplorePublicAPI(t *testing.T) {
	axes, err := upim.ParseAxes("tasklets=1,2;link=1,2")
	if err != nil {
		t.Fatal(err)
	}
	space := upim.NewDesignSpace([]string{"VA"}, axes...)
	space.Scale = upim.ScaleTiny
	store, err := upim.OpenResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	x, err := upim.Explore(context.Background(), space, upim.ExploreOptions{Parallelism: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if len(x.Outcomes) != 4 || x.Simulated != 4 {
		t.Fatalf("exploration = %d outcomes, %d simulated", len(x.Outcomes), x.Simulated)
	}
	for _, o := range x.Outcomes {
		if upim.PointKey(o.Point) != o.Key {
			t.Fatalf("PointKey mismatch for %s", o.Point.Design)
		}
	}

	summary := x.SummaryTable()
	if len(summary.Rows) != 4 {
		t.Fatalf("summary rows = %d", len(summary.Rows))
	}
	front := upim.ParetoFront(x.Outcomes, upim.GoalTime(), upim.GoalCost())
	if len(front) == 0 || len(front) > 4 {
		t.Fatalf("frontier size = %d", len(front))
	}
	if best := x.BestTable(1); len(best.Rows) != 1 {
		t.Fatalf("best rows = %d", len(best.Rows))
	}

	// Second exploration over the same store: pure hits.
	x2, err := upim.Explore(context.Background(), space, upim.ExploreOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if x2.Hits != 4 || x2.Simulated != 0 {
		t.Fatalf("resume = %d hits, %d simulated", x2.Hits, x2.Simulated)
	}
}

// TestServeCoordinatorRoutes: one address serves both protocols — the store
// mounted under /v1/ and the coordinator's more specific lease routes.
func TestServeCoordinatorRoutes(t *testing.T) {
	space := upim.NewDesignSpace([]string{"VA"}, upim.AxisTasklets(1, 2))
	store, err := upim.OpenResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h, handle, err := upim.ServeCoordinator(space, store, 0, upim.CoordinatorOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method, path string
		code         int
		body         string
	}{
		{"GET", "/v1/count", 200, `"count":0`},
		{"GET", "/v1/stats", 200, `"Hits":0`},
		{"GET", "/v1/exact/" + strings.Repeat("0", 64), 404, ""},
		{"GET", "/v1/status", 200, `"points":2`},
		{"GET", "/v1/space", 200, `"benchmarks":["VA"]`},
		{"GET", "/v1/lease", 405, ""},
		{"GET", "/v1/nosuch", 404, ""},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		if rec.Code != tc.code || !strings.Contains(rec.Body.String(), tc.body) {
			t.Errorf("%s %s = %d %q, want %d containing %q", tc.method, tc.path, rec.Code, rec.Body, tc.code, tc.body)
		}
	}
	if handle.Points() != 2 || handle.Done() {
		t.Errorf("handle: %d points, done %v; want 2, not done", handle.Points(), handle.Done())
	}
}
