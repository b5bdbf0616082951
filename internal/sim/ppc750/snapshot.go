package ppc750

import (
	"errors"
	"fmt"

	"repro/internal/osm"
	"repro/internal/snap"
)

// Full-simulator checkpointing. Beyond the director and its
// managers, the 750's dynamic state is the op-slot table: one op per
// machine, so the snapshot's op table has exactly one entry per
// machine and an op's index is its machine's registration ordinal.
// Producer references (captured deps, the renamer's newest-writer
// table) are encoded as slot ordinals, and only live ones: a stale
// ref names a retired producer, which reads ready exactly like no
// producer at all, so deps drop it and the newest-writer table
// encodes it as -1. Generations are not serialized; restore starts a
// fresh generation in every slot and binds the decoded refs to it.
// Decode-derived facts (instruction, class, operand lists) are
// re-derived from the restored RAM image; program text is immutable
// in this model.

const simSnapVersion = 2

const simSnapHeader = "p750"

// Snapshot encodes the complete simulator state.
func (s *Sim) Snapshot() ([]byte, error) {
	if n := s.ren.pending; n != 0 {
		return nil, fmt.Errorf("ppc750: snapshot with %d uncommitted rename transactions (snapshot only between cycles)", n)
	}

	w := snap.NewWriter()
	w.U32(snap.Magic)
	w.String(simSnapHeader)
	w.Version(simSnapVersion)
	w.Blob(s.ISS.Snapshot)
	w.Blob(s.Hier.Snapshot)
	var kerr error
	w.Blob(func(w *snap.Writer) { kerr = s.Kernel.Snapshot(w) })
	if kerr != nil {
		return nil, kerr
	}
	w.Blob(s.BHT.Snapshot)
	w.Blob(s.BTIC.Snapshot)

	w.U32(s.fetchPC)
	w.Bool(s.fetchStop)
	w.Bool(s.fetchHeld)
	w.U64(s.fetchResumeAt)
	w.U64(s.retired)
	w.U64(s.dispatched)
	w.U64(s.mispredicts)
	if s.execErr != nil {
		w.String(s.execErr.Error())
	} else {
		w.String("")
	}

	w.Blob(func(w *snap.Writer) {
		w.Int(len(s.slots))
		for i := range s.slots {
			o := &s.slots[i]
			w.Blob(func(w *snap.Writer) {
				w.U32(o.pc)
				w.U32(o.predictedNext)
				w.U32(o.actualNext)
				w.Bool(o.indirect)
				w.Bool(o.redirect)
				w.U64(o.resultAt)
				w.Int(o.renameBufs)
				w.U64(o.execLat)
				w.U32(o.memAddr)
				w.Bool(o.isMem)
				w.Bool(o.isStore)
				n := 0
				for _, d := range o.deps {
					if s.ren.live(d) != nil {
						n++
					}
				}
				w.Int(n)
				for _, d := range o.deps {
					if s.ren.live(d) != nil {
						w.Int(d.slot)
					}
				}
			})
		}
	})

	var derr error
	w.Blob(func(w *snap.Writer) { derr = s.director.Snapshot(w) })
	if derr != nil {
		return nil, derr
	}
	return w.Bytes(), nil
}

// Restore decodes a snapshot into this simulator, which must have
// been built with New from the same program and configuration and not
// yet stepped.
func (s *Sim) Restore(data []byte) error {
	r := snap.NewReader(data)
	if m := r.U32(); r.Err() == nil && m != snap.Magic {
		return fmt.Errorf("ppc750: not a snapshot (magic %#x)", m)
	}
	if h := r.String(); r.Err() == nil && h != simSnapHeader {
		return fmt.Errorf("ppc750: snapshot is for model %q, want %q", h, simSnapHeader)
	}
	r.Version("ppc750 sim", simSnapVersion)
	if err := s.ISS.Restore(r.Blob()); err != nil {
		return err
	}
	if err := s.Hier.Restore(r.Blob()); err != nil {
		return err
	}
	if err := s.Kernel.Restore(r.Blob()); err != nil {
		return err
	}
	if err := s.BHT.Restore(r.Blob()); err != nil {
		return err
	}
	if err := s.BTIC.Restore(r.Blob()); err != nil {
		return err
	}

	s.fetchPC = r.U32()
	s.fetchStop = r.Bool()
	s.fetchHeld = r.Bool()
	s.fetchResumeAt = r.U64()
	s.retired = r.U64()
	s.dispatched = r.U64()
	s.mispredicts = r.U64()
	if msg := r.String(); msg != "" {
		s.execErr = errors.New(msg)
	} else {
		s.execErr = nil
	}
	s.fetchCount = 0 // reset at the start of every cycle

	tb := r.Blob()
	nOps := tb.Int()
	if err := tb.Err(); err != nil {
		return err
	}
	if nOps != len(s.slots) {
		return fmt.Errorf("ppc750: snapshot has %d ops, model has %d machines", nOps, len(s.slots))
	}
	// A fresh generation in every slot turns any ref left over from
	// before the restore stale; the decoded refs bind to the new one.
	for i := range s.slots {
		s.slots[i].recycle(0)
	}
	for i := range s.slots {
		b := tb.Blob()
		o := &s.slots[i]
		o.pc = b.U32()
		o.predictedNext = b.U32()
		o.actualNext = b.U32()
		o.indirect = b.Bool()
		o.redirect = b.Bool()
		o.resultAt = b.U64()
		o.renameBufs = b.Int()
		o.execLat = b.U64()
		o.memAddr = b.U32()
		o.isMem = b.Bool()
		o.isStore = b.Bool()
		nd := b.Int()
		if err := b.Err(); err != nil {
			return fmt.Errorf("ppc750: op %d: %w", i, err)
		}
		if d := s.decode(o.pc); d.ok {
			o.ins, o.decodeOK = d.ins, true
			o.class = d.class
			o.srcs, o.dsts, o.gprDsts = d.srcs, d.dsts, d.gprs
		}
		if nd < 0 || nd > len(o.srcs) {
			return fmt.Errorf("ppc750: op %d: dep count %d out of range [0,%d]", i, nd, len(o.srcs))
		}
		for j := 0; j < nd; j++ {
			di := b.Int()
			if b.Err() != nil {
				break
			}
			if di < 0 || di >= nOps {
				return fmt.Errorf("ppc750: op %d: dep ordinal %d out of range [0,%d)", i, di, nOps)
			}
			o.deps = append(o.deps, s.slots[di].ref())
		}
		if err := b.Close(fmt.Sprintf("ppc750 op %d", i)); err != nil {
			return err
		}
	}
	if err := tb.Close("ppc750 op table"); err != nil {
		return err
	}

	if err := s.director.Restore(r.Blob()); err != nil {
		return err
	}
	return r.Close("ppc750 sim")
}

const bpredSnapVersion = 1

// Snapshot encodes the predictor's counters and statistics.
func (b *BHT) Snapshot(w *snap.Writer) {
	w.Version(bpredSnapVersion)
	w.Int(len(b.counters))
	for _, c := range b.counters {
		w.U8(c)
	}
	w.U64(b.Lookups)
	w.U64(b.Hits)
}

// Restore decodes a BHT snapshot into a table of identical size.
func (b *BHT) Restore(r *snap.Reader) error {
	r.Version("bht", bpredSnapVersion)
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(b.counters) {
		return fmt.Errorf("ppc750: bht snapshot has %d entries, table has %d", n, len(b.counters))
	}
	for i := range b.counters {
		b.counters[i] = r.U8()
	}
	b.Lookups = r.U64()
	b.Hits = r.U64()
	return r.Close("bht")
}

// Snapshot encodes the target cache's entries and statistics.
func (b *BTIC) Snapshot(w *snap.Writer) {
	w.Version(bpredSnapVersion)
	w.Int(len(b.tags))
	for i := range b.tags {
		w.U32(b.tags[i])
		w.U32(b.targets[i])
		w.Bool(b.valid[i])
	}
	w.U64(b.Lookups)
	w.U64(b.Hits)
}

// Restore decodes a BTIC snapshot into a cache of identical size.
func (b *BTIC) Restore(r *snap.Reader) error {
	r.Version("btic", bpredSnapVersion)
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(b.tags) {
		return fmt.Errorf("ppc750: btic snapshot has %d entries, cache has %d", n, len(b.tags))
	}
	for i := range b.tags {
		b.tags[i] = r.U32()
		b.targets[i] = r.U32()
		b.valid[i] = r.Bool()
	}
	b.Lookups = r.U64()
	b.Hits = r.U64()
	return r.Close("btic")
}

// renamerSnapVersion 2 encodes newest-writer entries as op-slot
// ordinals.
const renamerSnapVersion = 2

// SnapshotState encodes the rename state (osm.Snapshotter). A live
// newest-writer ref is encoded as its slot ordinal, an empty or stale
// one as -1; uncommitted transactions were rejected by Sim.Snapshot.
func (r *renamer) SnapshotState(c *osm.SnapCtx, w *snap.Writer) {
	w.Version(renamerSnapVersion)
	w.U64(r.cycle)
	w.Int(len(r.resultTimes))
	for _, at := range r.resultTimes {
		w.U64(at)
	}
	for _, p := range r.lastWriter {
		if r.live(p) != nil {
			w.Int(p.slot)
		} else {
			w.Int(-1)
		}
	}
	w.Int(r.bufCap)
	w.Int(r.bufUsed)
}

// RestoreState decodes a rename snapshot (osm.Snapshotter), binding
// newest-writer ordinals to the slots' current generations (Sim.Restore
// has already decoded the op table).
func (r *renamer) RestoreState(c *osm.SnapCtx, rd *snap.Reader) error {
	rd.Version("regfiles+rename", renamerSnapVersion)
	r.cycle = rd.U64()
	n := rd.Int()
	if err := rd.Err(); err != nil {
		return err
	}
	if n < 0 || n > rd.Remaining() {
		return fmt.Errorf("regfiles+rename: implausible result count %d", n)
	}
	r.resultTimes = r.resultTimes[:0]
	for i := 0; i < n; i++ {
		r.resultTimes = append(r.resultTimes, rd.U64())
	}
	for i := range r.lastWriter {
		oi := rd.Int()
		switch {
		case rd.Err() != nil:
		case oi == -1:
			r.lastWriter[i] = ref{}
		case oi >= 0 && oi < len(r.slots):
			r.lastWriter[i] = r.slots[oi].ref()
		default:
			return fmt.Errorf("regfiles+rename: writer ordinal %d out of range [0,%d)", oi, len(r.slots))
		}
	}
	bufCap := rd.Int()
	bufUsed := rd.Int()
	if err := rd.Close("regfiles+rename"); err != nil {
		return err
	}
	if bufCap != r.bufCap {
		return fmt.Errorf("regfiles+rename: snapshot has %d rename buffers, model has %d", bufCap, r.bufCap)
	}
	r.bufUsed = bufUsed
	r.pending = 0
	return nil
}
