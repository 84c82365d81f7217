package explore

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"upim/internal/engine"
)

// Segment files: the packed layout behind Store. Every record any process
// ever put lives in one of dir/seg/*.seg, each the append-only log of one
// OpenStore handle:
//
//	header   "upimseg1" | schema fingerprint [8]
//	record*  n u32 | crc u32 | key [32] | fidelity u8 | point length u32 | point | value
//
// n counts the bytes after the crc; the crc is CRC-32C over n and those
// bytes. Point and value are record-codec encodings (codec.go); the point is
// there to make a store readable without the code that wrote it, sits behind
// its own length, and is skipped by every read.

const (
	segDirName   = "seg"
	segSuffix    = ".seg"
	segMagic     = "upimseg1"
	segHeaderLen = len(segMagic) + len(schema)
	recPrefixLen = 8                     // n and crc
	recHeaderLen = recPrefixLen + 32 + 1 // ... key and fidelity
	// maxRecord bounds n, so that a damaged length cannot make a scan or a
	// read trust (or allocate for) more than an honest entry could hold: a
	// full result with per-DPU stats is a few hundred KiB.
	maxRecord = 64 << 20

	fidExact    byte = 1
	fidEstimate byte = 2
)

// racyWindow is how long after a directory's last change a listing of it is
// not trusted to be final: a file created within the timestamp granularity of
// that change leaves the directory's mtime as the listing saw it.
const racyWindow = 100 * time.Millisecond

// tornAge is how long a segment must have gone unwritten before an unframed
// tail is taken for a dead writer's and not a write in flight.
const tornAge = time.Second

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the crc of a framed record: over n and everything after the
// crc field.
func checksum(rec []byte) uint32 {
	return crc32.Update(crc32.Checksum(rec[:4], castagnoli), castagnoli, rec[recPrefixLen:])
}

// storeKey is a content address in binary: what KeyOf's hex spells.
type storeKey [32]byte

// parseKey decodes a 64-character hex content address.
func parseKey(key string) (k storeKey, ok bool) {
	var src [2 * len(k)]byte
	if len(key) != len(src) {
		return k, false
	}
	copy(src[:], key)
	_, err := hex.Decode(k[:], src[:])
	return k, err == nil
}

// segment is one segment file as this handle knows it.
type segment struct {
	path string
	f    *os.File
	// end is how far the file has been indexed: the offset of the first
	// record not yet scanned, 0 before the header has been checked. For the
	// handle's own segment it is the append offset.
	end int64
	// dead marks a file that is not a segment of this schema; torn marks a
	// tail already booked as corrupt. Either way it is booked once.
	dead, torn bool
}

// loc is where one record lives.
type loc struct {
	seg *segment
	off int64  // of the record's n field
	n   uint32 // whole framed length, prefix included
	fid byte
}

// recBufs pools the buffers records are framed into and read back through.
var recBufs = sync.Pool{New: func() any { return new([]byte) }}

// frame encodes one record for key into a pooled buffer, and returns the key
// in binary with it.
func frame(key string, fid byte, p *engine.Point, pl *plan, v any) (storeKey, *[]byte, error) {
	k, ok := parseKey(key)
	if !ok {
		return k, nil, fmt.Errorf("explore: malformed store key %q", key)
	}
	buf := recBufs.Get().(*[]byte)
	b := append((*buf)[:0], make([]byte, recPrefixLen)...)
	b = append(append(b, k[:]...), fid, 0, 0, 0, 0)
	b = pointPlan.encode(b, p)
	le.PutUint32(b[recHeaderLen:], uint32(len(b)-recHeaderLen-4))
	b = pl.encode(b, v)
	*buf = b
	if len(b)-recPrefixLen > maxRecord {
		recBufs.Put(buf)
		return k, nil, fmt.Errorf("explore: a %d-byte record is over the store's %d-byte limit", len(b), maxRecord)
	}
	le.PutUint32(b, uint32(len(b)-recPrefixLen))
	le.PutUint32(b[4:], checksum(b))
	return k, buf, nil
}

// note enters one scanned or appended record into the index. Resolution is
// by rule, not by write order: an exact record is never displaced by an
// estimate, and among equals the last one noted wins — so whichever order
// two processes' writes land in, every handle resolves the key the same way.
func (s *Store) note(k storeKey, l loc) {
	if old, ok := s.idx[k]; ok && old.fid == fidExact && l.fid != fidExact {
		return
	}
	s.idx[k] = l
}

// scan indexes the records of g between g.end and the file's current length.
// It reads record headers only; payloads are checked when served. A record
// that does not fit the file ends the scan there — nothing after a torn
// record can be framed. It is either a write in flight (a file grows a page
// at a time under its writer, and a reader can see it half grown) or what a
// killed writer left: once the file has gone tornAge without a write it is
// the latter, and the tail is booked corrupt, once.
func (s *Store) scan(g *segment, fi fs.FileInfo) {
	size := fi.Size()
	var hdr [recHeaderLen]byte
	if g.end == 0 {
		if size < int64(segHeaderLen) {
			return // created, header not written yet
		}
		if _, err := g.f.ReadAt(hdr[:segHeaderLen], 0); err != nil ||
			string(hdr[:len(segMagic)]) != segMagic || [len(schema)]byte(hdr[len(segMagic):segHeaderLen]) != schema {
			g.dead = true
			s.corrupt.Add(1)
			return
		}
		g.end = int64(segHeaderLen)
	}
	for g.end < size {
		n := int64(recPrefixLen)
		if g.end+recHeaderLen <= size {
			if _, err := g.f.ReadAt(hdr[:], g.end); err != nil {
				break
			}
			n += int64(le.Uint32(hdr[:]))
		}
		if n < recHeaderLen || n-recPrefixLen > maxRecord || g.end+n > size {
			if !g.torn && time.Since(fi.ModTime()) > tornAge {
				g.torn = true
				s.corrupt.Add(1)
			}
			return
		}
		switch fid := hdr[recHeaderLen-1]; fid {
		case fidExact, fidEstimate:
			s.note(storeKey(hdr[recPrefixLen:]), loc{g, g.end, uint32(n), fid})
		default:
			// A fidelity this code does not know is never served.
			s.corrupt.Add(1)
		}
		g.end += n
	}
}

// refresh brings the index up to date with the segment directory: files that
// appeared since the last listing are opened, and every other handle's
// segment that grew is scanned from where the last scan stopped. With nothing
// new it costs one stat of the directory and one fstat per foreign segment.
// The caller holds s.mu for writing.
func (s *Store) refresh() {
	fi, err := os.Stat(s.segDir)
	if err != nil {
		return // no handle has written yet
	}
	if mt := fi.ModTime(); !mt.Equal(s.dirMtime) || s.listed.Sub(mt) < racyWindow {
		s.listed = time.Now()
		names, err := os.ReadDir(s.segDir)
		if err != nil {
			return
		}
		s.dirMtime = mt
		for _, d := range names { // sorted, so every handle scans in one order
			if s.known[d.Name()] || !strings.HasSuffix(d.Name(), segSuffix) {
				continue
			}
			path := filepath.Join(s.segDir, d.Name())
			f, err := os.Open(path)
			if err != nil {
				continue // retried at the next listing
			}
			s.known[d.Name()] = true
			s.segs = append(s.segs, &segment{path: path, f: f})
		}
	}
	for _, g := range s.segs {
		if g == s.own || g.dead {
			continue
		}
		if fi, err := g.f.Stat(); err == nil && fi.Size() > g.end {
			s.scan(g, fi)
		}
	}
}

// lookup resolves k in the index. An exact record is final — nothing displaces
// it — so it is answered from memory; any other answer is first re-checked
// against the directory, where another handle may have put the key since.
func (s *Store) lookup(k storeKey) (loc, bool) {
	s.mu.RLock()
	l, ok := s.idx[k]
	s.mu.RUnlock()
	if ok && l.fid == fidExact {
		return l, true
	}
	s.mu.Lock()
	s.refresh()
	l, ok = s.idx[k]
	s.mu.Unlock()
	return l, ok
}

// readAt reads the record at l into buf, or returns nil.
func readAt(l loc, buf *[]byte) []byte {
	if cap(*buf) < int(l.n) {
		*buf = make([]byte, l.n)
	}
	b := (*buf)[:l.n]
	if _, err := l.seg.f.ReadAt(b, l.off); err != nil {
		return nil
	}
	return b
}

// decodeRecord checks a framed record — length, checksum, key, fidelity, and
// a point length no longer than the record — and decodes its value into *dst
// with no byte left over. It returns the point, which a store read skips. A
// record read from disk and one sent to the HTTP store both pass through it.
func decodeRecord(rec []byte, k storeKey, fid byte, pl *plan, dst any) (point []byte, ok bool) {
	if len(rec) < recHeaderLen+4 || int(le.Uint32(rec))+recPrefixLen != len(rec) ||
		le.Uint32(rec[4:]) != checksum(rec) || storeKey(rec[recPrefixLen:]) != k || rec[recHeaderLen-1] != fid {
		return nil, false
	}
	b := rec[recHeaderLen:]
	n := le.Uint32(b)
	if int(n) > len(b)-4 {
		return nil, false
	}
	if rest, err := pl.decode(b[4+n:], dst); err != nil || len(rest) != 0 {
		return nil, false
	}
	return b[4 : 4+n], true
}

// read decodes the value of the record at l into *dst. A record that fails
// any check is booked corrupt and dropped from the index, so the reads after
// it are clean misses until a Put repairs the key.
func (s *Store) read(k storeKey, l loc, pl *plan, dst any) bool {
	buf := recBufs.Get().(*[]byte)
	defer recBufs.Put(buf)
	if _, ok := decodeRecord(readAt(l, buf), k, l.fid, pl, dst); ok {
		return true
	}
	s.corrupt.Add(1)
	s.mu.Lock()
	if s.idx[k] == l {
		delete(s.idx, k)
	}
	s.mu.Unlock()
	return false
}

// holds reports whether the record at l is, byte for byte, rec.
func holds(l loc, rec []byte) bool {
	buf := recBufs.Get().(*[]byte)
	defer recBufs.Put(buf)
	return bytes.Equal(readAt(l, buf), rec)
}

// append writes one framed record to this handle's own segment — creating it
// on the first call, so a handle that only reads leaves the directory as it
// found it — and enters it into the index. One write per record, under the
// lock: a reader in another process sees the record whole or, for the instant
// it is being written, as a torn tail it will re-scan.
func (s *Store) append(k storeKey, fid byte, rec []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.own == nil {
		if err := s.create(); err != nil {
			return fmt.Errorf("explore: store: %w", err)
		}
	}
	g := s.own
	if _, err := g.f.Write(rec); err != nil {
		// Whatever part of the record landed is a torn tail now, and nothing
		// may be appended after one: the next write starts a new segment.
		s.own = nil
		return fmt.Errorf("explore: store: %w", err)
	}
	s.note(k, loc{g, g.end, uint32(len(rec)), fid})
	g.end += int64(len(rec))
	s.puts.Add(1)
	return nil
}

// create starts this handle's own segment: a new file, exclusively created,
// named so that segments sort in creation order.
func (s *Store) create() error {
	if err := os.MkdirAll(s.segDir, 0o755); err != nil {
		return err
	}
	for {
		name := fmt.Sprintf("%016x-%08x%s", time.Now().UnixNano(), rand.Uint32(), segSuffix)
		path := filepath.Join(s.segDir, name)
		f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return err
		}
		if _, err := f.Write(append([]byte(segMagic), schema[:]...)); err != nil {
			f.Close()
			return err
		}
		s.own = &segment{path: path, f: f, end: int64(segHeaderLen)}
		s.known[name] = true
		s.segs = append(s.segs, s.own)
		return nil
	}
}
