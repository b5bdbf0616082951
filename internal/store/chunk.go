package store

import (
	"bytes"
	"compress/flate"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
)

// ChunkRef addresses one chunk by content: the FNV-1a 64-bit hash of
// its raw bytes plus the raw length. The pair is the chunk's identity
// everywhere — file name on disk, index record, dedup key — so a hash
// collision additionally needs a length collision to go unnoticed,
// and every decode re-verifies both.
type ChunkRef struct {
	Sum uint64
	Len uint32
}

// maxChunkLen caps a single chunk. It bounds what a hostile index can
// make the decoder allocate, and is also the largest chunk size Open
// accepts.
const maxChunkLen = 1 << 24

// Chunk-file codec bytes. A chunk file is one codec byte followed by
// the payload; the byte selects how the payload decodes back to the
// raw chunk. New codecs get new bytes — old files stay readable.
const (
	codecRaw   = 0x00 // payload is the raw chunk
	codecFlate = 0x01 // payload is DEFLATE-compressed (stdlib flate)
)

func chunkSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// chunkPath places a chunk under root/chunks, sharded by the first
// hash byte so no single directory collects millions of entries.
func chunkPath(root string, ref ChunkRef) string {
	name := fmt.Sprintf("%016x-%08x.c", ref.Sum, ref.Len)
	return filepath.Join(root, chunksDirName, name[:2], name)
}

// splitFixed cuts data into fixed-size chunks. Adjacent snapshots of
// the same run are position-stable (same layout, a few changed pages),
// so fixed boundaries already dedup the unchanged chunks.
func splitFixed(data []byte, size int) []ChunkRef {
	refs := make([]ChunkRef, 0, len(data)/size+1)
	for len(data) > 0 {
		n := size
		if n > len(data) {
			n = len(data)
		}
		refs = append(refs, ChunkRef{Sum: chunkSum(data[:n]), Len: uint32(n)})
		data = data[n:]
	}
	return refs
}

// encodeChunk produces the chunk-file bytes for raw: a codec byte and
// a payload. The flate stage only wins when it actually shrinks the
// chunk — incompressible chunks stay raw, so the encode never costs
// more than one byte of overhead.
func encodeChunk(raw []byte) []byte {
	if len(raw) > 0 {
		var buf bytes.Buffer
		buf.WriteByte(codecFlate)
		zw, _ := flate.NewWriter(&buf, flate.BestSpeed)
		zw.Write(raw)
		if err := zw.Close(); err == nil && buf.Len() < 1+len(raw) {
			return buf.Bytes()
		}
	}
	out := make([]byte, 1+len(raw))
	out[0] = codecRaw
	copy(out[1:], raw)
	return out
}

// DecodeChunk decodes chunk-file bytes back to the raw chunk and
// verifies it against ref. It is the trust boundary for everything
// under chunks/: length and content hash must both match the address
// the caller asked for, and a flate payload may not expand past the
// declared length.
func DecodeChunk(file []byte, ref ChunkRef) ([]byte, error) {
	if ref.Len > maxChunkLen {
		return nil, fmt.Errorf("chunk %016x-%08x: length exceeds %d-byte ceiling", ref.Sum, ref.Len, maxChunkLen)
	}
	if len(file) == 0 {
		return nil, fmt.Errorf("chunk %016x-%08x: empty file", ref.Sum, ref.Len)
	}
	codec, payload := file[0], file[1:]
	var raw []byte
	switch codec {
	case codecRaw:
		raw = payload
	case codecFlate:
		// Bound the inflate to one byte past the declared length: a
		// conforming payload stops at ref.Len, so hitting the bound
		// proves the file lies about its size without ever allocating
		// more than one chunk's worth.
		zr := flate.NewReader(bytes.NewReader(payload))
		var err error
		raw, err = io.ReadAll(io.LimitReader(zr, int64(ref.Len)+1))
		zr.Close()
		if err != nil {
			return nil, fmt.Errorf("chunk %016x-%08x: inflate: %w", ref.Sum, ref.Len, err)
		}
	default:
		return nil, fmt.Errorf("chunk %016x-%08x: unknown codec byte %#x", ref.Sum, ref.Len, codec)
	}
	if uint32(len(raw)) != ref.Len || len(raw) > maxChunkLen {
		return nil, fmt.Errorf("chunk %016x-%08x: decoded to %d bytes", ref.Sum, ref.Len, len(raw))
	}
	if chunkSum(raw) != ref.Sum {
		return nil, fmt.Errorf("chunk %016x-%08x: content hash mismatch", ref.Sum, ref.Len)
	}
	return raw, nil
}

// readChunk loads and decodes one chunk from disk. The read is bounded
// by the addressed length — the codec never stores more than 1+Len
// bytes — so a corrupt oversized file fails fast instead of being
// slurped whole.
func readChunk(root string, ref ChunkRef) ([]byte, error) {
	f, err := os.Open(chunkPath(root, ref))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	file, err := io.ReadAll(io.LimitReader(f, int64(ref.Len)+2))
	if err != nil {
		return nil, fmt.Errorf("chunk %016x-%08x: %w", ref.Sum, ref.Len, err)
	}
	if len(file) > int(ref.Len)+1 {
		return nil, fmt.Errorf("chunk %016x-%08x: file longer than codec allows", ref.Sum, ref.Len)
	}
	return DecodeChunk(file, ref)
}
