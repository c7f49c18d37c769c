package graphio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"

	"mpcgraph/internal/graph"
	"mpcgraph/internal/par"
)

// This file is the fast parse path for the two native hot formats
// (edge list and weighted edge list): a chunk-parallel byte-level
// scanner replacing bufio.Scanner + strings.Fields + strconv on the
// per-edge path. The contract is strict parity with the scanner-based
// reference readers (readEdgeListScanner, readWELScanner, kept in
// reference_test.go): identical parse results and byte-identical error
// strings on every input, pinned by the parity suite and the fuzz
// harnesses.
//
// Shape: a windower accumulates large reads and hands out windows of
// complete lines; each window is split at line boundaries into one
// shard per worker; shards parse independently with an ASCII tokenizer
// and custom integer parser, falling back to the reference per-line
// logic for any line containing a byte >= 0x80 (strings.Fields splits
// on Unicode whitespace, so only the reference path reproduces those
// lines). Shard results merge in shard order, which makes edge order,
// header precedence ("last header wins") and the reported error (the
// earliest bad line) identical to the sequential scan for every worker
// count.

// readWindow is the window accumulation target. Windows always end on
// a line boundary, so their actual size is bounded by the line cap,
// not this constant.
const readWindow = 1 << 22

// elMaxLine mirrors the line cap ReadEdgeList has always had: a line
// whose content reaches this many bytes is reported exactly as
// bufio.Scanner.Buffer(..., 1<<24) would — token too long.
const elMaxLine = 1 << 24

// windower turns an io.Reader into windows of complete lines. A window
// aliases the internal buffer and is invalidated by the next call.
type windower struct {
	r        io.Reader
	maxLine  int
	buf      []byte
	n        int   // buf[:n] is unconsumed
	consumed int   // prefix handed out by the previous next()
	lastNL   int   // index of the last '\n' in buf[:n], or -1
	scanned  int   // bytes of buf[:n] already scanned for '\n'
	done     bool  // reader exhausted
	ioErr    error // non-EOF read error, surfaced by the caller last
}

// next returns the next window of complete lines. tooLong reports that
// the line after the returned data reached maxLine (the scanner's
// token-too-long condition). final reports the last window, which may
// end without a newline; on final, w.ioErr carries any non-EOF read
// error, to be surfaced only if the window parses cleanly — matching
// bufio.Scanner, which emits the buffered tokens before reporting Err.
func (w *windower) next() (data []byte, tooLong, final bool) {
	if w.buf == nil {
		w.buf = make([]byte, readWindow)
		w.lastNL = -1
	}
	if w.consumed > 0 {
		// The previous window ran through its last newline, so the
		// remainder is one partial line with no '\n' in it.
		copy(w.buf, w.buf[w.consumed:w.n])
		w.n -= w.consumed
		w.consumed = 0
		w.lastNL = -1
		w.scanned = w.n
	}
	for {
		if i := bytes.LastIndexByte(w.buf[w.scanned:w.n], '\n'); i >= 0 {
			w.lastNL = w.scanned + i
		}
		w.scanned = w.n
		tail := w.n - (w.lastNL + 1) // trailing partial line
		switch {
		case tail >= w.maxLine:
			return w.consume(w.lastNL + 1), true, false
		case w.done:
			return w.consume(w.n), false, true
		case w.lastNL >= 0 && w.n >= readWindow:
			return w.consume(w.lastNL + 1), false, false
		}
		if w.n == len(w.buf) {
			grown := make([]byte, 2*len(w.buf))
			copy(grown, w.buf[:w.n])
			w.buf = grown
		}
		k, err := w.r.Read(w.buf[w.n:])
		w.n += k
		if err != nil {
			w.done = true
			if err != io.EOF {
				w.ioErr = err
			}
		}
	}
}

func (w *windower) consume(k int) []byte {
	w.consumed = k
	return w.buf[:k]
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports as space
// ('\n' excluded — it never appears inside a line).
var asciiSpace = [256]bool{'\t': true, '\v': true, '\f': true, '\r': true, ' ': true}

// Vertex-token parse statuses, mirroring parseVertex's two failure
// modes exactly.
const (
	vOK int8 = iota
	vBad
	vRange
)

// parseVertexToken is parseVertex(tok, 0, -1, ...) without the error
// construction: strconv.ParseInt semantics (optional sign, decimal
// digits, int64 overflow is a syntax error) plus the MaxVertices bound.
func parseVertexToken(tok string) (int32, int8) {
	i := 0
	neg := false
	if tok[0] == '+' || tok[0] == '-' {
		neg = tok[0] == '-'
		i++
		if i == len(tok) {
			return 0, vBad
		}
	}
	var v uint64
	over := false
	for ; i < len(tok); i++ {
		d := tok[i] - '0'
		if d > 9 {
			return 0, vBad
		}
		if over {
			continue
		}
		if v > math.MaxUint64/10 {
			over = true
			continue
		}
		v = v*10 + uint64(d)
		if v > math.MaxInt64 {
			over = true
		}
	}
	switch {
	case over, neg && v > 0:
		return 0, vBad // ParseInt range/sign failure: "bad vertex"
	case v >= MaxVertices:
		return 0, vRange
	}
	return int32(v), vOK
}

// parseCountToken is parseVertexCount without the error construction;
// every failure mode shares one message, so ok suffices.
func parseCountToken(tok string) (int, bool) {
	i := 0
	neg := false
	if tok[0] == '+' || tok[0] == '-' {
		neg = tok[0] == '-'
		i++
		if i == len(tok) {
			return 0, false
		}
	}
	var v uint64
	for ; i < len(tok); i++ {
		d := tok[i] - '0'
		if d > 9 {
			return 0, false
		}
		if v > math.MaxUint64/10 {
			return 0, false
		}
		v = v*10 + uint64(d)
		if v > math.MaxInt64 {
			return 0, false
		}
	}
	if neg && v > 0 {
		return 0, false
	}
	if v > MaxVertices {
		return 0, false
	}
	return int(v), true
}

// tokenizeASCII splits line into fields exactly as strings.Fields does
// for all-ASCII input, storing the first 4 tokens and counting the
// rest. ok=false reports a byte >= 0x80: the caller must reparse the
// line through the reference path, the only one that reproduces
// Unicode whitespace splitting.
//
// A blank line returns nt=0; a comment line (first field starting
// with '#', i.e. TrimSpace(line) has prefix "#") returns nt=-1.
func tokenizeASCII(line string) (toks [4]string, nt int, ok bool) {
	i := 0
	for i < len(line) && asciiSpace[line[i]] {
		i++
	}
	if i < len(line) && line[i] == '#' {
		return toks, -1, true
	}
	for i < len(line) {
		c := line[i]
		if asciiSpace[c] {
			i++
			continue
		}
		if c >= 0x80 {
			return toks, 0, false
		}
		start := i
		for i < len(line) {
			c = line[i]
			if asciiSpace[c] {
				break
			}
			if c >= 0x80 {
				return toks, 0, false
			}
			i++
		}
		if nt < len(toks) {
			toks[nt] = line[start:i]
		}
		nt++
	}
	return toks, nt, true
}

// lineKind classifies one parsed line for the shard merge.
type lineKind int8

const (
	lineSkip lineKind = iota
	lineHeader
	lineEdge
	lineErr
)

// lineVal is the outcome of parsing one line. mkErr builds the exact
// reader error once the merge knows the global line number; it is
// allocated only on the error path.
type lineVal struct {
	kind  lineKind
	u, v  int32
	wt    float64
	n     int
	mkErr func(line int) error
}

// parseELLineSlow replicates readEdgeListScanner's loop body for one
// raw (untrimmed, all-Unicode) line.
func parseELLineSlow(raw string) lineVal {
	line := strings.TrimSpace(raw)
	if line == "" || strings.HasPrefix(line, "#") {
		return lineVal{kind: lineSkip}
	}
	fields := strings.Fields(line)
	if fields[0] == "n" {
		if len(fields) != 2 {
			return headerFormErr()
		}
		n, err := parseVertexCount(fields[1], 0)
		if err != nil {
			return countErr(fields[1])
		}
		return lineVal{kind: lineHeader, n: n}
	}
	if len(fields) != 2 {
		return arityErr("u v", line)
	}
	u, st := parseVertexToken(fields[0])
	if st != vOK {
		return vertexErr(fields[0], st)
	}
	v, st := parseVertexToken(fields[1])
	if st != vOK {
		return vertexErr(fields[1], st)
	}
	if u == v {
		return selfLoopErr(u)
	}
	return lineVal{kind: lineEdge, u: u, v: v}
}

// parseWELLineSlow replicates readWELScanner's loop body for one raw
// line.
func parseWELLineSlow(raw string) lineVal {
	line := strings.TrimSpace(raw)
	if line == "" || strings.HasPrefix(line, "#") {
		return lineVal{kind: lineSkip}
	}
	fields := strings.Fields(line)
	if fields[0] == "n" {
		if len(fields) != 2 {
			return headerFormErr()
		}
		n, err := parseVertexCount(fields[1], 0)
		if err != nil {
			return countErr(fields[1])
		}
		return lineVal{kind: lineHeader, n: n}
	}
	if len(fields) != 3 {
		return arityErr("u v w", line)
	}
	u, st := parseVertexToken(fields[0])
	if st != vOK {
		return vertexErr(fields[0], st)
	}
	v, st := parseVertexToken(fields[1])
	if st != vOK {
		return vertexErr(fields[1], st)
	}
	if u == v {
		return selfLoopErr(u)
	}
	wt, err := strconv.ParseFloat(fields[2], 64)
	if err != nil || !(wt > 0) || wt > 1e308 {
		return weightErr(fields[2])
	}
	return lineVal{kind: lineEdge, u: u, v: v, wt: wt}
}

func headerFormErr() lineVal {
	return lineVal{kind: lineErr, mkErr: func(line int) error {
		return fmt.Errorf("graphio: line %d: header must be 'n <count>'", line)
	}}
}

func countErr(tok string) lineVal {
	return lineVal{kind: lineErr, mkErr: func(line int) error {
		return fmt.Errorf("graphio: line %d: bad vertex count %q (limit %d)", line, tok, MaxVertices)
	}}
}

func arityErr(want, trimmed string) lineVal {
	return lineVal{kind: lineErr, mkErr: func(line int) error {
		return fmt.Errorf("graphio: line %d: want '%s', got %q", line, want, trimmed)
	}}
}

func vertexErr(tok string, st int8) lineVal {
	return lineVal{kind: lineErr, mkErr: func(line int) error {
		if st == vRange {
			return fmt.Errorf("graphio: line %d: vertex %s out of range", line, tok)
		}
		return fmt.Errorf("graphio: line %d: bad vertex %q", line, tok)
	}}
}

func selfLoopErr(u int32) lineVal {
	return lineVal{kind: lineErr, mkErr: func(line int) error {
		return fmt.Errorf("graphio: line %d: self-loop at %d", line, u)
	}}
}

func weightErr(tok string) lineVal {
	return lineVal{kind: lineErr, mkErr: func(line int) error {
		return fmt.Errorf("graphio: line %d: edge weight %q must be a positive finite number", line, tok)
	}}
}

// shardState is one worker's parse of its slice of a window.
type shardState struct {
	keys      []uint64   // EL: packed edges, in input order (reused)
	edges     [][2]int32 // WEL: edges as read, in input order (reused)
	weights   []float64  // WEL: parallel weights (reused)
	lines     int        // lines consumed, including the error line
	maxSeen   int32
	headerN   int
	headerSet bool
	errVal    lineVal // kind==lineErr when the shard stopped on an error
}

func (s *shardState) reset() {
	s.keys = s.keys[:0]
	s.edges = s.edges[:0]
	s.weights = s.weights[:0]
	s.lines = 0
	s.maxSeen = -1
	s.headerSet = false
	s.errVal = lineVal{}
}

// parseShard parses the complete lines in data (the final line may
// lack its '\n'), stopping at the first error. weighted selects the
// WEL grammar. The hot path is the all-ASCII tokenizer; any line with
// a high byte detours through the reference logic.
func parseShard(data string, weighted bool, s *shardState) {
	s.reset()
	pos := 0
	for pos < len(data) {
		var line string
		if nl := strings.IndexByte(data[pos:], '\n'); nl >= 0 {
			line = data[pos : pos+nl]
			pos += nl + 1
		} else {
			line = data[pos:]
			pos = len(data)
		}
		s.lines++
		toks, nt, ascii := tokenizeASCII(line)
		var lv lineVal
		if !ascii {
			if weighted {
				lv = parseWELLineSlow(line)
			} else {
				lv = parseELLineSlow(line)
			}
		} else {
			lv = parseASCIILine(line, toks, nt, weighted)
		}
		switch lv.kind {
		case lineSkip:
		case lineHeader:
			s.headerN = lv.n
			s.headerSet = true
		case lineEdge:
			if lv.u > s.maxSeen {
				s.maxSeen = lv.u
			}
			if lv.v > s.maxSeen {
				s.maxSeen = lv.v
			}
			if weighted {
				s.edges = append(s.edges, [2]int32{lv.u, lv.v})
				s.weights = append(s.weights, lv.wt)
			} else {
				s.keys = append(s.keys, graph.PackEdge(lv.u, lv.v))
			}
		case lineErr:
			s.errVal = lv
			return
		}
	}
}

// parseASCIILine classifies one tokenized all-ASCII line.
func parseASCIILine(line string, toks [4]string, nt int, weighted bool) lineVal {
	if nt <= 0 {
		return lineVal{kind: lineSkip} // blank (0) or comment (-1)
	}
	if toks[0] == "n" {
		if nt != 2 {
			return headerFormErr()
		}
		n, ok := parseCountToken(toks[1])
		if !ok {
			return countErr(toks[1])
		}
		return lineVal{kind: lineHeader, n: n}
	}
	want := 2
	if weighted {
		want = 3
	}
	if nt != want {
		label := "u v"
		if weighted {
			label = "u v w"
		}
		return arityErr(label, trimASCII(line))
	}
	u, st := parseVertexToken(toks[0])
	if st != vOK {
		return vertexErr(toks[0], st)
	}
	v, st := parseVertexToken(toks[1])
	if st != vOK {
		return vertexErr(toks[1], st)
	}
	if u == v {
		return selfLoopErr(u)
	}
	lv := lineVal{kind: lineEdge, u: u, v: v}
	if weighted {
		wt, err := strconv.ParseFloat(toks[2], 64)
		if err != nil || !(wt > 0) || wt > 1e308 {
			return weightErr(toks[2])
		}
		lv.wt = wt
	}
	return lv
}

// trimASCII is strings.TrimSpace for all-ASCII input.
func trimASCII(s string) string {
	i, j := 0, len(s)
	for i < j && asciiSpace[s[i]] {
		i++
	}
	for j > i && asciiSpace[s[j-1]] {
		j--
	}
	return s[i:j]
}

// lineCuts splits data into up to want shard boundaries aligned to
// line ends: cuts[i]:cuts[i+1] are whole lines. The final cut is
// always len(data).
func lineCuts(data string, want int) []int {
	cuts := make([]int, 1, want+1)
	for w := 1; w < want; w++ {
		target := len(data) * w / want
		if target <= cuts[len(cuts)-1] {
			continue
		}
		nl := strings.IndexByte(data[target:], '\n')
		if nl < 0 {
			break
		}
		end := target + nl + 1
		if end > cuts[len(cuts)-1] && end < len(data) {
			cuts = append(cuts, end)
		}
	}
	cuts = append(cuts, len(data))
	return cuts
}

// fastReader drives the window/shard machinery shared by both native
// formats.
type fastReader struct {
	workers  int
	weighted bool
	maxLine  int

	n        int // last header value, -1 when undeclared
	maxSeen  int32
	lineBase int

	keys    []uint64
	edges   [][2]int32
	weights []float64

	shards []shardState
}

// run consumes r entirely, returning the first error exactly as the
// scanner-based reader would.
func (fr *fastReader) run(r io.Reader) error {
	w := &windower{r: r, maxLine: fr.maxLine}
	for {
		data, tooLong, final := w.next()
		if len(data) > 0 {
			if err := fr.window(string(data)); err != nil {
				return err
			}
		}
		if tooLong {
			return fmt.Errorf("graphio: %w", bufio.ErrTooLong)
		}
		if final {
			if w.ioErr != nil {
				return fmt.Errorf("graphio: %w", w.ioErr)
			}
			return nil
		}
	}
}

// window parses one window of complete lines, fanning out across
// shards and merging in shard order.
func (fr *fastReader) window(data string) error {
	cuts := lineCuts(data, par.ShardCount(fr.workers, len(data)))
	nShards := len(cuts) - 1
	for len(fr.shards) < nShards {
		fr.shards = append(fr.shards, shardState{})
	}
	if nShards == 1 {
		parseShard(data, fr.weighted, &fr.shards[0])
	} else {
		var wg sync.WaitGroup
		wg.Add(nShards)
		for i := 0; i < nShards; i++ {
			go func(i int) {
				defer wg.Done()
				parseShard(data[cuts[i]:cuts[i+1]], fr.weighted, &fr.shards[i])
			}(i)
		}
		wg.Wait()
	}
	for i := 0; i < nShards; i++ {
		s := &fr.shards[i]
		if s.errVal.kind == lineErr {
			return s.errVal.mkErr(fr.lineBase + s.lines)
		}
		fr.lineBase += s.lines
		if s.headerSet {
			fr.n = s.headerN
		}
		if s.maxSeen > fr.maxSeen {
			fr.maxSeen = s.maxSeen
		}
		if fr.weighted {
			fr.edges = append(fr.edges, s.edges...)
			fr.weights = append(fr.weights, s.weights...)
		} else {
			fr.keys = append(fr.keys, s.keys...)
		}
	}
	return nil
}

// finishN resolves the final vertex count and the out-of-range check,
// shared verbatim with the scanner readers.
func (fr *fastReader) finishN() (int, error) {
	n := fr.n
	if n < 0 {
		n = int(fr.maxSeen) + 1
	}
	if int(fr.maxSeen) >= n {
		return 0, fmt.Errorf("graphio: vertex %d out of range for declared n=%d", fr.maxSeen, n)
	}
	return n, nil
}

// readEdgeListFast is the chunk-parallel edge-list reader behind
// ReadEdgeList.
func readEdgeListFast(r io.Reader, workers int) (*graph.Graph, error) {
	fr := &fastReader{workers: workers, maxLine: elMaxLine, n: -1, maxSeen: -1}
	if err := fr.run(r); err != nil {
		return nil, err
	}
	n, err := fr.finishN()
	if err != nil {
		return nil, err
	}
	return graph.FromPackedEdges(n, fr.keys)
}

// readWELFast is the chunk-parallel weighted-edge-list reader behind
// Read(FormatWeightedEdgeList).
func readWELFast(r io.Reader, workers int) (*Data, error) {
	fr := &fastReader{workers: workers, weighted: true, maxLine: maxLine, n: -1, maxSeen: -1}
	if err := fr.run(r); err != nil {
		return nil, err
	}
	n, err := fr.finishN()
	if err != nil {
		return nil, err
	}
	return assembleWeighted(n, fr.edges, fr.weights)
}
