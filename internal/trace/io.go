package trace

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"
)

// WriteCSV serializes the trace as "id,at_ms,length" rows with a header —
// the format cmd/arlotrace emits. Arrivals are printed to the microsecond.
// Generative traces (any request with an output budget) add a fourth
// out_tokens column; ReadCSV accepts both.
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	gen := t.Generative()
	if gen {
		bw.WriteString("id,at_ms,length,out_tokens\n")
	} else {
		bw.WriteString("id,at_ms,length\n")
	}
	// bufio.Writer keeps its first error and Flush returns it.
	for _, r := range t.Requests {
		fmt.Fprintf(bw, "%d,%.3f,%d", r.ID, float64(r.At)/float64(time.Millisecond), r.Length)
		if gen {
			fmt.Fprintf(bw, ",%d", r.OutTokens)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ReadCSV parses a trace from the WriteCSV format: 3-column encoder rows
// ("id,at_ms,length") or 4-column generative rows (+ out_tokens), mixed
// freely. Each arrival is rounded to the microsecond, the unit WriteCSV
// prints, so writing a parsed trace and reading it back gives the same
// trace. Requests must be sorted by arrival time; the trace duration is
// the given value, or just past the last arrival when duration <= 0.
func ReadCSV(r io.Reader, duration time.Duration) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // 3 or 4 columns, validated per row below
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: reading CSV: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty CSV")
	}
	start := 0
	if rows[0][0] == "id" {
		start = 1 // skip header
	}
	reqs := make([]Request, 0, len(rows)-start)
	var prev time.Duration
	for i := start; i < len(rows); i++ {
		if len(rows[i]) != 3 && len(rows[i]) != 4 {
			return nil, fmt.Errorf("trace: row %d: want 3 or 4 fields, got %d", i, len(rows[i]))
		}
		id, err := strconv.ParseInt(rows[i][0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: bad id %q", i, rows[i][0])
		}
		atMS, err := strconv.ParseFloat(rows[i][1], 64)
		atUS := math.Round(atMS * 1e3)
		if err != nil || !(atMS >= 0) || atUS >= math.MaxInt64/1e3 {
			return nil, fmt.Errorf("trace: row %d: bad arrival %q", i, rows[i][1])
		}
		length, err := strconv.Atoi(rows[i][2])
		if err != nil || length < 1 {
			return nil, fmt.Errorf("trace: row %d: bad length %q", i, rows[i][2])
		}
		outTokens := 0
		if len(rows[i]) == 4 {
			outTokens, err = strconv.Atoi(rows[i][3])
			if err != nil || outTokens < 0 {
				return nil, fmt.Errorf("trace: row %d: bad out_tokens %q", i, rows[i][3])
			}
		}
		at := time.Duration(atUS) * time.Microsecond
		if at < prev {
			return nil, fmt.Errorf("trace: row %d: arrivals not sorted (%v after %v)", i, at, prev)
		}
		prev = at
		reqs = append(reqs, Request{ID: id, At: at, Length: length, OutTokens: outTokens})
	}
	d := duration
	if d <= 0 {
		d = prev + time.Nanosecond
	}
	if len(reqs) > 0 && reqs[len(reqs)-1].At >= d {
		return nil, fmt.Errorf("trace: duration %v does not cover the last arrival %v", d, prev)
	}
	return &Trace{Requests: reqs, Duration: d}, nil
}

// EmpiricalLengths samples lengths by inverse-CDF over an observed sample
// — the way to replay a real trace's length distribution at a different
// rate or duration.
type EmpiricalLengths struct {
	sorted []int
}

// NewEmpiricalLengths builds the distribution from observed lengths.
func NewEmpiricalLengths(observed []int) (*EmpiricalLengths, error) {
	if len(observed) == 0 {
		return nil, fmt.Errorf("trace: empirical distribution needs samples")
	}
	sorted := make([]int, len(observed))
	copy(sorted, observed)
	sort.Ints(sorted)
	if sorted[0] < 1 {
		return nil, fmt.Errorf("trace: empirical samples must be >= 1, got %d", sorted[0])
	}
	return &EmpiricalLengths{sorted: sorted}, nil
}

// SampleLength implements LengthSampler.
func (e *EmpiricalLengths) SampleLength(rng *rand.Rand, _ time.Duration) int {
	return e.sorted[rng.Intn(len(e.sorted))]
}
