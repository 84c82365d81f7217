package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// logRun is one process's events log: a fresh Log (so seq restarts at 1)
// emitting one event per type under a fixed clock.
func logRun(types ...string) []byte {
	var b bytes.Buffer
	l := NewLog(&b)
	l.now = func() time.Time { return time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC) }
	for i, typ := range types {
		l.emit(Event{Type: typ, Worker: "w0", Shard: i, Point: -1, Key: strings.Repeat("ab", 32)})
	}
	return b.Bytes()
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// TestParseEvents covers what `pathfind -events FILE` leaves behind: the log
// is opened with O_APPEND, so a killed run's torn final line is followed by
// whatever the rerun writes, starting at seq 1 on the same line.
func TestParseEvents(t *testing.T) {
	crashed := logRun(EventWorkerStart, EventLeaseGrant, EventPointSimulated, EventLeaseComplete)
	torn := crashed[:len(crashed)-60] // three whole events, the fourth cut
	rerun := logRun(EventWorkerStart, EventLeaseGrant, EventWorkerExit)
	for _, tc := range []struct {
		name string
		log  []byte
		want string // "seq:type" per event; "error" for a refused log
	}{
		{"clean", crashed, "1:worker_start 2:lease_grant 3:point_simulated 4:lease_complete"},
		{"torn final line", torn, "1:worker_start 2:lease_grant 3:point_simulated"},
		{"blank lines", cat([]byte("\n"), crashed, []byte("\n\n")), "1:worker_start 2:lease_grant 3:point_simulated 4:lease_complete"},
		{"one event appended onto the tear", cat(torn, logRun(EventWorkerStart)),
			"1:worker_start 2:lease_grant 3:point_simulated 1:worker_start"},
		{"three events appended onto the tear", cat(torn, rerun),
			"1:worker_start 2:lease_grant 3:point_simulated 1:worker_start 2:lease_grant 3:worker_exit"},
		{"two resumed runs", cat(torn, rerun[:len(rerun)-50], rerun),
			"1:worker_start 2:lease_grant 3:point_simulated 1:worker_start 2:lease_grant 1:worker_start 2:lease_grant 3:worker_exit"},
		{"appended event torn too", cat(torn, rerun[:40]), "1:worker_start 2:lease_grant 3:point_simulated"},
		{"garbage line", cat(crashed[:100], []byte("not json\n"), crashed), "error"},
		{"appended event is not seq 1", cat(torn, bytes.SplitAfter(rerun, []byte("\n"))[1], rerun), "error"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			evs, err := ParseEvents(bytes.NewReader(tc.log))
			got := "error"
			if err == nil {
				var s []string
				for _, e := range evs {
					s = append(s, fmt.Sprintf("%d:%s", e.Seq, e.Type))
				}
				got = strings.Join(s, " ")
			}
			if got != tc.want {
				t.Errorf("ParseEvents = %q (err %v), want %q", got, err, tc.want)
			}
		})
	}
}

// encodeEvents is what Log writes for evs, seq and time included.
func encodeEvents(t *testing.T, evs []Event) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, e := range evs {
		if err := enc.Encode(e); err != nil {
			t.Fatalf("accepted event %+v does not encode: %v", e, err)
		}
	}
	return b.Bytes()
}

// FuzzParseEvents holds the events log reader to three properties: no input
// panics; what it accepts re-encodes to a fixed point; and a log resumed
// after a crash (valid log A, a proper prefix of an encoded event, then a
// rerun's valid log B from seq 1) reads back as A's events then B's.
func FuzzParseEvents(f *testing.F) {
	crash, err := os.ReadFile("testdata/crash-events.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(crash, []byte("\n"))
	f.Add(crash, uint16(0))
	f.Add(cat(cat(lines[:9]...), lines[9][:70]), uint16(33))
	f.Add(cat(cat(lines[:9]...), lines[9][:70], lines[0], lines[1]), uint16(120))
	f.Add([]byte(`{"seq":1,"time":null,"type":"x","shard":0,"point":0}`+"\n"), uint16(7))
	f.Add([]byte("{\n}\n"), uint16(1))

	f.Fuzz(func(t *testing.T, log []byte, cut uint16) {
		evs, err := ParseEvents(bytes.NewReader(log))
		if err != nil {
			return // refused input: only the no-panic guarantee applies
		}
		a := encodeEvents(t, evs)
		again, err := ParseEvents(bytes.NewReader(a))
		if err != nil {
			t.Fatalf("re-encoded log does not parse: %v\n%s", err, a)
		}
		if a2 := encodeEvents(t, again); !bytes.Equal(a, a2) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\n->\n%s", a, a2)
		}

		rerun := slices.Clone(evs)
		for i := range rerun {
			rerun[i].Seq = int64(i + 1)
		}
		b := encodeEvents(t, rerun)
		src := encodeEvents(t, []Event{{Seq: 9, Type: EventLeaseRenew, Worker: "w1", Shard: 3, Lease: "s3.g2", Point: -1}})
		if len(evs) > 0 {
			src = encodeEvents(t, evs[len(evs)-1:])
		}
		prefix := src[:int(cut)%(len(src)-2)] // short of the closing "}\n": a real tear

		resumed, err := ParseEvents(bytes.NewReader(cat(a, prefix, b)))
		if err != nil {
			t.Fatalf("resumed log refused: %v\n%s", err, cat(a, prefix, b))
		}
		if got, want := encodeEvents(t, resumed), cat(a, b); !bytes.Equal(got, want) {
			t.Fatalf("resumed log read back as\n%s\nwant\n%s", got, want)
		}
	})
}
