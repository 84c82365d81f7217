package prim

import (
	"context"

	"upim/internal/host"
)

// MLP: a 3-layer perceptron with quantized integer arithmetic — each layer
// is y = relu(W.x) >> 6, reusing the GEMV kernel with the activation
// epilogue. Layers are separate kernel launches; activations travel through
// the host between layers (gather + broadcast), which is what puts MLP's
// DPU-to-DPU bars in Fig 10 even at one DPU.

func runMLP(ctx context.Context, x *xfer, p Params) error {
	dim, layers := p.M, p.Layers
	weights := make([][]int32, layers)
	for l := range weights {
		// randI32s results are shared read-only; shift into a copy.
		weights[l] = x.ints(dim * dim)
		for i, v := range randI32s(dim*dim, 16, p.Seed+int64(l)) {
			weights[l][i] = v - 8
		}
	}
	in := randI32s(dim, 16, p.Seed+100)

	// Golden model.
	want := in
	for l := 0; l < layers; l++ {
		next := x.ints(dim)
		for r := 0; r < dim; r++ {
			var acc int32
			for j := 0; j < dim; j++ {
				acc += weights[l][r*dim+j] * want[j]
			}
			if acc < 0 {
				acc = 0
			}
			next[r] = acc >> 6
		}
		want = next
	}

	// Layout: each DPU holds its row-slice of every layer's weights, the
	// (broadcast) activation vector, and its y slice. Regions are sized by
	// the largest slice so every DPU shares one layout even when the last
	// DPUs get short (or empty) row ranges.
	slices := ranges(dim, x.sys.NumDPUs(), 2)
	maxRows := slices[0][1] - slices[0][0]
	var m mram
	rw := make([]region, layers)
	for l := range rw {
		rw[l] = m.words(maxRows * dim)
	}
	rx, ry := m.words(dim), m.words(maxRows)
	outs := make([]region, len(slices))
	for d, r := range slices {
		for l := range rw {
			x.put(d, rw[l], weights[l][r[0]*dim:r[1]*dim])
		}
		x.put(d, rx, in)
		outs[d] = ry.sub(0, r[1]-r[0])
	}

	act := in
	for l := range rw {
		if l > 0 {
			x.phase(host.PhaseExchange)
		}
		for d := range slices {
			if l > 0 {
				// Broadcast the previous layer's activations.
				x.put(d, rx, act)
			}
			x.args(d, rw[l].addr(), rx.addr(), ry.addr(), uint32(outs[d].words), uint32(dim))
		}
		// Gather the layer output (exchange for inner layers, final output
		// for the last).
		next := host.PhaseExchange
		if l == layers-1 {
			next = host.PhaseOutput
		}
		x.launch(ctx, next)
		act = x.gather(outs)
	}
	return checkI32s("MLP", act, want)
}
