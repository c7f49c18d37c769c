package graphio

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"mpcgraph/internal/graph"
)

// The line-by-line reference readers for the two native dialects. The
// production paths are the chunk-parallel readers of fastread.go; these
// oracles live here so the parity and fuzz suites can pin the fast
// paths to them.

// readEdgeListScanner is the bufio.Scanner-based reference reader. The
// fast path must match it bit for bit — same graphs, same error
// strings — on every input; the parity and fuzz suites enforce that.
func readEdgeListScanner(r io.Reader) (*graph.Graph, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<24)
	var (
		edges   [][2]int32
		n       = -1
		maxSeen = int32(-1)
		lineNo  int
	)
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "n" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("graphio: line %d: header must be 'n <count>'", lineNo)
			}
			v, err := parseVertexCount(fields[1], lineNo)
			if err != nil {
				return nil, err
			}
			n = v
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("graphio: line %d: want 'u v', got %q", lineNo, line)
		}
		u, err := parseVertex(fields[0], 0, -1, lineNo)
		if err != nil {
			return nil, err
		}
		v, err := parseVertex(fields[1], 0, -1, lineNo)
		if err != nil {
			return nil, err
		}
		if u == v {
			return nil, fmt.Errorf("graphio: line %d: self-loop at %d", lineNo, u)
		}
		if u > maxSeen {
			maxSeen = u
		}
		if v > maxSeen {
			maxSeen = v
		}
		edges = append(edges, [2]int32{u, v})
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	if n < 0 {
		n = int(maxSeen) + 1
	}
	if int(maxSeen) >= n {
		return nil, fmt.Errorf("graphio: vertex %d out of range for declared n=%d", maxSeen, n)
	}
	return graph.FromEdges(n, edges)
}

// readWELScanner is the bufio.Scanner-based reference reader; the fast
// path in fastread.go is pinned against it by the parity and fuzz
// suites.
func readWELScanner(r io.Reader) (*Data, error) {
	sc := newScanner(r)
	var (
		edges   [][2]int32
		weights []float64
		n       = -1
		maxSeen = int32(-1)
		lineNo  int
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "n" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("graphio: line %d: header must be 'n <count>'", lineNo)
			}
			v, err := parseVertexCount(fields[1], lineNo)
			if err != nil {
				return nil, err
			}
			n = v
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("graphio: line %d: want 'u v w', got %q", lineNo, line)
		}
		u, err := parseVertex(fields[0], 0, -1, lineNo)
		if err != nil {
			return nil, err
		}
		v, err := parseVertex(fields[1], 0, -1, lineNo)
		if err != nil {
			return nil, err
		}
		if u == v {
			return nil, fmt.Errorf("graphio: line %d: self-loop at %d", lineNo, u)
		}
		wt, err := parseWeight(fields[2], lineNo)
		if err != nil {
			return nil, err
		}
		if u > maxSeen {
			maxSeen = u
		}
		if v > maxSeen {
			maxSeen = v
		}
		edges = append(edges, [2]int32{u, v})
		weights = append(weights, wt)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	if n < 0 {
		n = int(maxSeen) + 1
	}
	if int(maxSeen) >= n {
		return nil, fmt.Errorf("graphio: vertex %d out of range for declared n=%d", maxSeen, n)
	}
	return assembleWeighted(n, edges, weights)
}
