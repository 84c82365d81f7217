package explore

import (
	"crypto/sha256"
	"encoding/hex"
	"unsafe"

	"upim/internal/engine"
)

// KeyOf returns the content address of a simulation point: a SHA-256 over
// the store format version and the point as the record codec encodes it —
// benchmark, full hardware configuration, DPU count, dataset scale, watchdog
// and machine, the bytes every stored record carries for its point. Two
// points share a key exactly when they are equal, and so exactly when the
// simulator would produce identical results for them (it is deterministic),
// which is what lets interrupted or repeated explorations reuse each other's
// finished points. A field enters the key by being declared, as it enters
// the record and the schema fingerprint.
func KeyOf(p engine.Point) string {
	var buf [2048]byte
	b := pointPlan.encodeAt(le.AppendUint64(buf[:0], storeFormat), unsafe.Pointer(&p))
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
