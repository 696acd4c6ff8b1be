package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// SeriesColumn is one sampled column: a name and a function read at each
// Sample call. Fn runs on the sampling goroutine; point it at atomic
// counters, gauges, or accessors documented lock-free.
type SeriesColumn struct {
	Name string
	Fn   func() float64
}

// SeriesRow is one sampling instant: the virtual timestamp plus one value
// per column, in column order.
type SeriesRow struct {
	AtNS int64     `json:"at_ns"` // series format is virtual ns by contract
	V    []float64 `json:"v"`
}

// Series accumulates periodic virtual-clock samples of a fixed column set
// into a columnar time series — the campaign telemetry that turns
// end-of-run aggregates (detection latency, FP rate, bottleneck-shard
// load) into plottable curves over a diurnal window. Single-goroutine:
// the campaign's dispatch loop owns it.
type Series struct {
	cols []SeriesColumn
	rows []SeriesRow
}

// NewSeries creates a series over the given columns.
func NewSeries(cols ...SeriesColumn) *Series {
	return &Series{cols: cols}
}

// Columns returns the column names in sampling order.
func (s *Series) Columns() []string {
	names := make([]string, len(s.cols))
	for i, c := range s.cols {
		names[i] = c.Name
	}
	return names
}

// Sample reads every column at virtual time at and appends one row.
func (s *Series) Sample(at time.Duration) {
	row := SeriesRow{AtNS: int64(at), V: make([]float64, len(s.cols))}
	for i, c := range s.cols {
		row.V[i] = c.Fn()
	}
	s.rows = append(s.rows, row)
}

// Len returns the number of rows sampled.
func (s *Series) Len() int { return len(s.rows) }

// Rows returns the sampled rows (shared backing; callers must not
// mutate).
func (s *Series) Rows() []SeriesRow { return s.rows }

// WriteJSONL writes the series as columnar JSONL: a header object naming
// the columns, then one row object per sample. Byte-deterministic for a
// deterministic sampling run.
func (s *Series) WriteJSONL(w io.Writer) error {
	header := struct {
		Series []string `json:"series"`
	}{Series: s.Columns()}
	line, err := json.Marshal(header)
	if err != nil {
		return fmt.Errorf("obs: marshal series header: %w", err)
	}
	line = append(line, '\n')
	if _, err := w.Write(line); err != nil {
		return fmt.Errorf("obs: write series header: %w", err)
	}
	for _, row := range s.rows {
		line, err := json.Marshal(row)
		if err != nil {
			return fmt.Errorf("obs: marshal series row: %w", err)
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return fmt.Errorf("obs: write series row: %w", err)
		}
	}
	return nil
}
