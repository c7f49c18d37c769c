// Package graphio reads and writes graph instances in the portable
// on-disk formats understood by the mpcgraph CLI: the repository's
// native edge list, a weighted edge list, DIMACS edge format, the
// METIS/Chaco adjacency format, and MatrixMarket coordinate files —
// each optionally gzip-compressed, detected from the stream's magic
// bytes. Read/Write take an explicit Format; ReadFile/WriteFile resolve
// the format from the file extension (with a content sniff as the read
// fallback) and handle compression. Readers stream line-by-line into
// the parallel graph.Builder, so a parsed instance is bit-identical to
// one constructed in-process from the same edge set. The full grammar,
// limits and error behavior of every format are documented in
// docs/formats.md.
//
// The native edge-list dialect is: an optional header line "n <count>",
// then one "u v" pair per line (0-based vertex ids); '#' starts a
// comment. Without a header, n is one plus the largest vertex id seen.
package graphio

import (
	"io"
	"strconv"

	"mpcgraph/internal/graph"
)

// ReadEdgeList parses the edge-list format from r. It is the
// chunk-parallel fast path (see fastread.go); readEdgeListScanner in
// reference_test.go is the line-by-line oracle it is pinned against.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	return readEdgeListFast(r, 0)
}

// writeFlush is the fast writers' flush threshold: integer rendering
// appends into one reused buffer that is written out in large chunks,
// replacing a fmt.Fprintf (reflection + interface allocs) per edge.
const writeFlush = 1 << 16

// WriteEdgeList writes g in the edge-list format with a header line.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	buf := make([]byte, 0, writeFlush+64)
	buf = append(buf, 'n', ' ')
	buf = strconv.AppendInt(buf, int64(g.NumVertices()), 10)
	buf = append(buf, '\n')
	var writeErr error
	g.ForEachEdge(func(u, v int32) {
		if writeErr != nil {
			return
		}
		buf = strconv.AppendInt(buf, int64(u), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(v), 10)
		buf = append(buf, '\n')
		if len(buf) >= writeFlush {
			_, writeErr = w.Write(buf)
			buf = buf[:0]
		}
	})
	if writeErr != nil {
		return writeErr
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
