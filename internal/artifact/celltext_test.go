package artifact_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"upim/internal/artifact"
	"upim/internal/energy"
)

// TestCellTextMatchesFmt holds the cell constructors to the fmt spellings
// every committed table was written with: Num's %.0f/%.1f/%.2f, Int's
// Sprint, Pct's %.1f%%, Column.Label's "%s (%s)" and the energy tables'
// %.4g. The values are random bit patterns plus signed zeros, infinities,
// NaN and the decimal rounding edges.
func TestCellTextMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		9.995, 99.995, 99.95, 9.9949999, 10, 100, 0.005, 0.015, 0.125, 2.5, 0.5, 1.5,
		-9.995, -0.005, 1e21, 1e-7, 5e-324, math.MaxFloat64, 1 << 53, 12345.5, 0.99995, 9999.5,
	}
	for i := 0; i < 60000; i++ {
		switch i % 3 {
		case 0:
			values = append(values, math.Float64frombits(rng.Uint64()))
		case 1:
			values = append(values, (rng.Float64()-0.25)*math.Pow(10, float64(rng.Intn(12)-4)))
		default: // k/1000 and its neighbours: the half-way cases of two decimals
			v := float64(rng.Intn(2000000)-100000) / 1000
			values = append(values, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
		}
	}
	for _, v := range values {
		var want string
		switch {
		case v == 0:
			want = "0"
		case v >= 100:
			want = fmt.Sprintf("%.0f", v)
		case v >= 10:
			want = fmt.Sprintf("%.1f", v)
		default:
			want = fmt.Sprintf("%.2f", v)
		}
		if got := artifact.Num(v).Text; got != want {
			t.Fatalf("Num(%v) = %q, fmt says %q", v, got, want)
		}
		if got, want := artifact.Pct(v).Text, fmt.Sprintf("%.1f%%", v*100); got != want {
			t.Fatalf("Pct(%v) = %q, fmt says %q", v, got, want)
		}
	}
	// energy's cells, through the one constructor that makes them: every
	// cell's text is %.4g of its own exact value.
	for i := 0; i+int(energy.NumComponents) <= len(values); i += int(energy.NumComponents) {
		var r energy.Report
		copy(r.PJ[:], values[i:])
		for _, c := range energy.AppendBreakdownRow(nil, r, values[len(values)-1-i]) {
			if want := fmt.Sprintf("%.4g", c.Num); c.Text != want {
				t.Fatalf("energy cell %v = %q, fmt says %q", c.Num, c.Text, want)
			}
		}
	}

	ints := []int64{0, 1, -1, 9, 10, 99, 100, 101, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for i := 0; i < 30000; i++ {
		ints = append(ints, rng.Int63()>>rng.Intn(63)*int64(1-2*rng.Intn(2)))
	}
	for _, n := range ints {
		if got, want := artifact.Int(n).Text, fmt.Sprint(n); got != want {
			t.Fatalf("Int(%d) = %q, fmt says %q", n, got, want)
		}
		if got, want := artifact.Int(int(n)).Text, fmt.Sprint(int(n)); got != want {
			t.Fatalf("Int(int(%d)) = %q, fmt says %q", n, got, want)
		}
		if got, want := artifact.Int(uint64(n)).Text, fmt.Sprint(uint64(n)); got != want {
			t.Fatalf("Int(uint64(%d)) = %q, fmt says %q", n, got, want)
		}
		if got, want := artifact.Int(uint32(n)).Text, fmt.Sprint(uint32(n)); got != want {
			t.Fatalf("Int(uint32(%d)) = %q, fmt says %q", n, got, want)
		}
		if got, want := artifact.Int(uint(n)).Text, fmt.Sprint(uint(n)); got != want {
			t.Fatalf("Int(uint(%d)) = %q, fmt says %q", n, got, want)
		}
	}

	for _, name := range []string{"", "total", "a (b)", "|", "\xff"} {
		for _, unit := range []string{"", "ms", "uJ*ms", "%", "\xff"} {
			want := name
			if unit != "" {
				want = fmt.Sprintf("%s (%s)", name, unit)
			}
			if got := (artifact.Column{Name: name, Unit: unit}).Label(); got != want {
				t.Fatalf("Column{%q, %q}.Label() = %q, fmt says %q", name, unit, got, want)
			}
		}
	}
}
