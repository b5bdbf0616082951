package osm

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/snap"
)

// TestRecorderGolden pins the Recorder's observable digests on the
// two-machine twoStage model to constants, so any change to the
// recorder's internals must reproduce the same checksum byte stream
// and the same SaveState encoding exactly. The "resumed" rows save the
// recording after 40 steps, load it into a recorder with a smaller
// Limit, attach that recorder to the same director and run 50 more
// steps.
func TestRecorderGolden(t *testing.T) {
	type golden struct {
		checksum uint64
		total    uint64
		state    string // sha256 of the SaveState bytes
	}
	digest := func(rec *Recorder) golden {
		w := snap.NewWriter()
		rec.SaveState(w)
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(w.Bytes())
		return golden{rec.Checksum(), rec.Total(), hex.EncodeToString(h[:])}
	}
	steps := func(d *Director, n int) {
		for i := 0; i < n; i++ {
			if err := d.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name        string
		limit       int
		steps       int
		resumeLimit int // 0: no save/load
		want        golden
	}{
		{"unbounded", 0, 100, 0, golden{0xba679ed1333218e5, 199, "b4cd47149ce701de2ba1f3316d1fccdf88c8faabb8710e0a5dca5dec063285c5"}},
		{"limit3", 3, 100, 0, golden{0xba679ed1333218e5, 199, "4b47ab8e34959e8fedcd21988d88dc5b43f29082bc39158e2b0b737061567ba1"}},
		{"unbounded/resumed-limit5", 0, 40, 5, golden{0xa1b0576678b2ac5d, 179, "7b5bd2b201cd5769b0e631214e2a3df74d2e849fb67c56ee91f9676ca87dc512"}},
		{"limit3/resumed-limit2", 3, 40, 2, golden{0xa1b0576678b2ac5d, 179, "44bd7517d9fe0cde1e839f245d3abb0f3425abe1d5ccafc0004af84d1b96fb74"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, _, _ := twoStage(2)
			rec := NewRecorder()
			rec.Limit = c.limit
			d.Tracer = rec
			steps(d, c.steps)
			if c.resumeLimit > 0 {
				w := snap.NewWriter()
				rec.SaveState(w)
				rec = NewRecorder()
				rec.Limit = c.resumeLimit
				if err := rec.LoadState(snap.NewReader(w.Bytes())); err != nil {
					t.Fatal(err)
				}
				d.Tracer = rec
				steps(d, 50)
			}
			if got := digest(rec); got != c.want {
				t.Errorf("got {%#x, %d, %q}, want {%#x, %d, %q}",
					got.checksum, got.total, got.state, c.want.checksum, c.want.total, c.want.state)
			}
		})
	}
}
