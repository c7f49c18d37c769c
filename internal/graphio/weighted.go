package graphio

import (
	"io"
	"strconv"

	"mpcgraph/internal/graph"
)

// Weighted edge list: the native edge-list dialect with a third
// positive-real weight column.
//
//	# <comment>
//	n <count>           (optional header; otherwise n = 1 + max id seen)
//	<u> <v> <w>         (0-based endpoints, w > 0)
//
// Duplicate edges are collapsed and must agree on the weight.
// See docs/formats.md.

func readWeightedEdgeList(r io.Reader) (*Data, error) {
	return readWELFast(r, 0)
}

func writeWeightedEdgeList(w io.Writer, wg *graph.Weighted) error {
	buf := make([]byte, 0, writeFlush+96)
	buf = append(buf, 'n', ' ')
	buf = strconv.AppendInt(buf, int64(wg.NumVertices()), 10)
	buf = append(buf, '\n')
	if err := forEachWeightedEdge(wg, func(u, v int32, wt float64) error {
		buf = strconv.AppendInt(buf, int64(u), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(v), 10)
		buf = append(buf, ' ')
		// AppendFloat('g', -1, 64) renders the same shortest round-trip
		// form as formatWeight.
		buf = strconv.AppendFloat(buf, wt, 'g', -1, 64)
		buf = append(buf, '\n')
		if len(buf) >= writeFlush {
			_, err := w.Write(buf)
			buf = buf[:0]
			return err
		}
		return nil
	}); err != nil {
		return err
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
