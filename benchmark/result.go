package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metric is one measured value; Note says what the reader should hold it
// against (how it was estimated, what the raw figure was).
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

// result is what one workload process reports: the contract's four keys plus
// the ordered metric list the human-readable lines are printed from.
type result struct {
	Workload  string
	Attempted int
	Failed    int
	Metrics   []metric

	defs []metricDef
}

func newResult(workload string, trace bool) *result {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	return &result{Workload: workload, defs: defs}
}

// put records a metric; the unit comes from the definition table, so a name
// the table does not list is a bug in the harness, not an input condition.
func (r *result) put(name string, v float64, note string) {
	for _, d := range r.defs {
		if d.name == name {
			r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: d.unit, Note: note})
			return
		}
	}
	panic("flashmark: metric " + name + " is not in the definition table")
}

// check verifies the run emitted every metric of its table exactly once and
// that every value is finite.
func (r *result) check() error {
	seen := make(map[string]int, len(r.Metrics))
	for _, m := range r.Metrics {
		seen[m.Name]++
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite: %v", m.Name, m.Value)
		}
	}
	for _, d := range r.defs {
		if seen[d.name] != 1 {
			return fmt.Errorf("metric %s emitted %d times, want 1", d.name, seen[d.name])
		}
	}
	return nil
}

func (r *result) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// print writes one line per metric: "metric <workload> <name> <value> <unit>"
// and the metric's note, if it has one, in brackets.
func (r *result) print(w io.Writer) {
	for _, m := range r.Metrics {
		if m.Note != "" {
			fmt.Fprintf(w, "metric %s %s %.6g %s [%s]\n", r.Workload, m.Name, m.Value, m.Unit, m.Note)
		} else {
			fmt.Fprintf(w, "metric %s %s %.6g %s\n", r.Workload, m.Name, m.Value, m.Unit)
		}
	}
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	// Not a "metric" line: the contract carries failures as failed/attempted,
	// because a ratio whose healthy value is 0 has no relative bound.
	fmt.Fprintf(w, "ops %s attempted %d failed %d op_fail_ratio %g\n",
		r.Workload, r.Attempted, r.Failed, ratio)
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

func (r *result) contract() contractResult {
	out := contractResult{
		Correct:   r.correct(),
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   make(map[string]contractValue, len(r.Metrics)),
	}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = contractValue{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// printContract writes the contract's JSON object as one line.
func (r *result) printContract(w io.Writer) error {
	b, err := json.Marshal(r.contract())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
