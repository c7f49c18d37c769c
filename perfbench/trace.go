package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"

	"mpcgraph"
)

// span is one timed call into a layer. Spans of one op share Op; Parent
// is the enclosing span's ID, 0 at the top.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"startMs"`
	End    float64 `json:"endMs"`
}

func (s span) dur() time.Duration {
	return time.Duration((s.End - s.Start) * float64(time.Millisecond))
}

// tracer keeps spans in memory; they are written out once, at exit. A
// nil *tracer records nothing, which is the untraced mode.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{epoch: time.Now()}
}

func (t *tracer) ms(at time.Time) float64 {
	return float64(at.Sub(t.epoch)) / float64(time.Millisecond)
}

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t.ms(start), End: t.ms(end)})
	return id
}

// time runs fn inside a span and returns how long it took.
func (t *tracer) time(name string, parent, op int, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	t.add(name, parent, op, start, end)
	return end.Sub(start), err
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perOp sums, for each op, the durations of the spans with the given
// name and returns the per-op totals, in no particular order.
func (t *tracer) perOp(name string) []time.Duration {
	byOp := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Name == name {
			byOp[s.Op] += s.dur()
		}
	}
	out := make([]time.Duration, 0, len(byOp))
	for _, d := range byOp {
		out = append(out, d)
	}
	return out
}

// roundClock timestamps Options.Trace events so a Solve can be split
// into its Report.Stages afterwards.
type roundClock struct {
	start  time.Time
	rounds []int
	at     []time.Time
}

func (c *roundClock) observe(e mpcgraph.TraceEvent) {
	c.rounds = append(c.rounds, e.Round)
	c.at = append(c.at, time.Now())
}

// stageEnds splits [c.start, end] into one interval per stage. Stage i
// covers cumulative rounds (R_{i-1}, R_i] and ends at the last event
// whose round is at most R_i; the last stage ends when Solve returned.
// A stage that emitted no events (boost) is thereby charged the time
// from the last event before it to its end.
func (c *roundClock) stageEnds(stages []mpcgraph.StageCost, end time.Time) []time.Time {
	ends := make([]time.Time, len(stages))
	cum, j, prev := 0, 0, c.start
	for i, st := range stages {
		cum += st.Rounds
		for j < len(c.rounds) && c.rounds[j] <= cum {
			prev = c.at[j]
			j++
		}
		ends[i] = prev
	}
	if len(ends) > 0 {
		ends[len(ends)-1] = end
	}
	return ends
}

// stageSpans records one child span of the solve span per stage, named
// "stage.<family>" by the stage's name (invocation, finish, boost,
// phase, direct, improvement, prefix, gather). The spans tile the solve
// span [c.start, end] by construction.
func (t *tracer) stageSpans(solve, op int, c *roundClock, stages []mpcgraph.StageCost, end time.Time) {
	if t == nil {
		return
	}
	prev := c.start
	for i, e := range c.stageEnds(stages, end) {
		t.add("stage."+stageFamily(stages[i].Name), solve, op, prev, e)
		prev = e
	}
}

// stageFamily maps a stage name to the layer it belongs to; MIS names
// its gathers "gather-all" and "final-gather".
func stageFamily(name string) string {
	if strings.Contains(name, "gather") {
		return "gather"
	}
	for _, f := range []string{"invocation", "finish", "boost", "phase", "direct", "improvement", "prefix"} {
		if strings.HasPrefix(name, f) {
			return f
		}
	}
	return "other"
}
