package store

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzChunkIndex feeds arbitrary bytes to the index decoder: whatever
// the input, it must neither panic nor allocate proportionally to
// counts the input merely claims, and anything it accepts must
// re-encode to the identical bytes (the encoding is canonical).
func FuzzChunkIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("OSNP"))
	// A well-formed index with two entries, one chunk each.
	f.Add(encodeIndex("run-1", []Entry{
		{Cycle: 100, Len: 3, Sum: 7, Chunks: []ChunkRef{{Sum: 7, Len: 3}}},
		{Cycle: 200, Len: 5, Sum: 9, Chunks: []ChunkRef{{Sum: 9, Len: 5}}},
	}))
	// An empty run.
	f.Add(encodeIndex("r", nil))
	// Truncated mid-entry.
	good := encodeIndex("x", []Entry{{Cycle: 1, Len: 2, Sum: 3, Chunks: []ChunkRef{{Sum: 3, Len: 2}}}})
	f.Add(good[:len(good)-5])

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run, entries, err := DecodeIndex(data)
		runtime.ReadMemStats(&after)
		if delta := after.TotalAlloc - before.TotalAlloc; delta > uint64(len(data))*64+1<<20 {
			t.Fatalf("decoding %d input bytes allocated %d", len(data), delta)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(encodeIndex(run, entries), data) {
			t.Fatalf("accepted index does not re-encode canonically")
		}
	})
}

// FuzzChunkDecode feeds arbitrary chunk-file bytes to the chunk
// decoder under a fixed address: it must never panic, never return
// data that fails the address check, and never allocate past the
// declared chunk length bound.
func FuzzChunkDecode(f *testing.F) {
	raw := []byte("the quick brown fox jumps over the lazy dog")
	ref := ChunkRef{Sum: chunkSum(raw), Len: uint32(len(raw))}
	f.Add(encodeChunk(raw), ref.Sum, ref.Len)
	f.Add(append([]byte{codecRaw}, raw...), ref.Sum, ref.Len)
	f.Add([]byte{}, ref.Sum, ref.Len)
	f.Add([]byte{codecFlate, 0xff, 0xff}, ref.Sum, ref.Len)
	f.Add([]byte{0x7f, 1, 2, 3}, ref.Sum, ref.Len)
	zeros := make([]byte, 4096)
	f.Add(encodeChunk(zeros), chunkSum(zeros), uint32(len(zeros)))

	f.Fuzz(func(t *testing.T, file []byte, sum uint64, length uint32) {
		ref := ChunkRef{Sum: sum, Len: length}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := DecodeChunk(file, ref)
		runtime.ReadMemStats(&after)
		// A flate payload may legitimately expand up to the declared
		// length (bounded by the ceiling); beyond that is a bug.
		bound := uint64(len(file))*8 + 1<<20
		if length <= maxChunkLen {
			bound += uint64(length) * 4
		}
		if delta := after.TotalAlloc - before.TotalAlloc; delta > bound {
			t.Fatalf("decoding %d input bytes allocated %d (bound %d)", len(file), delta, bound)
		}
		if err != nil {
			return
		}
		if uint32(len(out)) != length || chunkSum(out) != sum {
			t.Fatalf("decoder accepted data failing its own address check")
		}
	})
}

// FuzzChunkRoundTrip drives the encoder with arbitrary raw chunks:
// encode → decode must be the identity, whichever codec the encoder
// picks.
func FuzzChunkRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello"))
	f.Add(make([]byte, 4096))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > maxChunkLen {
			return
		}
		ref := ChunkRef{Sum: chunkSum(raw), Len: uint32(len(raw))}
		file := encodeChunk(raw)
		out, err := DecodeChunk(file, ref)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if !bytes.Equal(out, raw) {
			t.Fatal("round trip not identity")
		}
	})
}
