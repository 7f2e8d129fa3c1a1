package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// FuzzTraceParse fuzzes the CSV trace parser with arbitrary bytes. A
// parse either fails with an error or yields a trace satisfying the
// contract the replay paths depend on: arrivals sorted and non-negative,
// lengths >= 1, and the duration covering the last arrival. Successful
// parses must survive a write/re-read round trip unchanged (the format
// stores arrivals with microsecond precision, which time.Duration
// represents exactly).
func FuzzTraceParse(f *testing.F) {
	f.Add([]byte("id,at_ms,length\n0,0.000,12\n1,5.250,400\n"), int64(0))
	f.Add([]byte("0,1.5,64\n1,2.5,128\n"), int64(time.Second))
	f.Add([]byte("id,at_ms,length\n"), int64(0))
	f.Add([]byte(""), int64(0))
	f.Add([]byte("id,at_ms,length\n0,2.0,8\n1,1.0,8\n"), int64(0))
	f.Add([]byte("0,-1,5\n"), int64(0))
	f.Add([]byte("0,0,0\n"), int64(0))
	f.Add([]byte("a,b,c\n"), int64(0))
	f.Add([]byte("0,1e300,5\n"), int64(0))
	f.Add([]byte("0,nan,5\n"), int64(0))
	f.Add([]byte("\"0\",\"3.25\",\"7\"\n"), int64(0))

	f.Fuzz(func(t *testing.T, data []byte, durNS int64) {
		tr, err := ReadCSV(bytes.NewReader(data), time.Duration(durNS))
		if err != nil {
			return // rejected input: the only requirement is no panic
		}

		var prev time.Duration
		for i, r := range tr.Requests {
			if r.At < 0 {
				t.Fatalf("row %d: negative arrival %v accepted", i, r.At)
			}
			if r.At < prev {
				t.Fatalf("row %d: unsorted arrival %v after %v accepted", i, r.At, prev)
			}
			prev = r.At
			if r.Length < 1 {
				t.Fatalf("row %d: length %d accepted", i, r.Length)
			}
			if r.At >= tr.Duration {
				t.Fatalf("row %d: arrival %v outside duration %v", i, r.At, tr.Duration)
			}
		}

		// Round trip. The writer emits milliseconds with three decimals;
		// skip traces whose arrivals are beyond exact float64 microsecond
		// territory (a parsed 1e300 ms saturates the duration, and its
		// re-rendered form legitimately differs).
		const maxExact = 1000 * time.Hour
		for _, r := range tr.Requests {
			if r.At > maxExact {
				return
			}
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV of parsed trace: %v", err)
		}
		wantHeader := "id,at_ms,length\n"
		if tr.Generative() {
			wantHeader = "id,at_ms,length,out_tokens\n"
		}
		if !strings.HasPrefix(buf.String(), wantHeader) {
			t.Fatalf("WriteCSV lost the header: %q", buf.String()[:32])
		}
		back, err := ReadCSV(bytes.NewReader(buf.Bytes()), tr.Duration)
		if err != nil {
			t.Fatalf("re-reading written trace: %v\ncsv:\n%s", err, buf.String())
		}
		if len(back.Requests) != len(tr.Requests) {
			t.Fatalf("round trip changed request count: %d -> %d", len(tr.Requests), len(back.Requests))
		}
		for i := range back.Requests {
			a, b := tr.Requests[i], back.Requests[i]
			if a.ID != b.ID || a.Length != b.Length || a.OutTokens != b.OutTokens {
				t.Fatalf("row %d changed identity: %+v -> %+v", i, a, b)
			}
			// %.3f ms is microsecond resolution; the round trip may snap
			// an arrival to the nearest microsecond but never further.
			diff := a.At - b.At
			if diff < 0 {
				diff = -diff
			}
			if diff > time.Microsecond {
				t.Fatalf("row %d arrival drifted %v (%v -> %v)", i, diff, a.At, b.At)
			}
		}
		if back.Duration != tr.Duration {
			t.Fatalf("round trip changed duration: %v -> %v", tr.Duration, back.Duration)
		}
	})
}

// FuzzGenerativeTraceParse fuzzes the 4-column generative trace format
// specifically: rows carrying an out_tokens budget, mixed freely with
// 3-column encoder rows. Accepted parses must keep every output budget
// non-negative, agree with Generative()/MeanOutTokens(), and
// survive a write/re-read round trip with budgets intact.
func FuzzGenerativeTraceParse(f *testing.F) {
	f.Add([]byte("id,at_ms,length,out_tokens\n0,0.000,12,8\n1,5.250,400,1\n"), int64(0))
	f.Add([]byte("0,1.5,64,32\n1,2.5,128,0\n"), int64(time.Second))
	f.Add([]byte("id,at_ms,length,out_tokens\n"), int64(0))
	f.Add([]byte("0,0.0,8,4\n1,1.0,8\n2,2.0,16,2\n"), int64(0)) // mixed 3/4-col
	f.Add([]byte("0,0.0,8,-1\n"), int64(0))
	f.Add([]byte("0,0.0,8,notanumber\n"), int64(0))
	f.Add([]byte("0,0.0,8,99999999999999999999\n"), int64(0))
	f.Add([]byte("\"0\",\"3.25\",\"7\",\"2\"\n"), int64(0))

	f.Fuzz(func(t *testing.T, data []byte, durNS int64) {
		tr, err := ReadCSV(bytes.NewReader(data), time.Duration(durNS))
		if err != nil {
			return // rejected input: the only requirement is no panic
		}

		var sum float64
		genN := 0
		for i, r := range tr.Requests {
			if r.OutTokens < 0 {
				t.Fatalf("row %d: negative out_tokens %d accepted", i, r.OutTokens)
			}
			if r.OutTokens > 0 {
				genN++
				sum += float64(r.OutTokens)
			}
		}
		if tr.Generative() != (genN > 0) {
			t.Fatalf("Generative() = %v, but %d generative rows", tr.Generative(), genN)
		}
		// MeanOutTokens averages over generative requests only.
		want := 0.0
		if genN > 0 {
			want = sum / float64(genN)
		}
		if got := tr.MeanOutTokens(); got != want {
			t.Fatalf("MeanOutTokens() = %v, want %v", got, want)
		}

		const maxExact = 1000 * time.Hour
		for _, r := range tr.Requests {
			if r.At > maxExact {
				return
			}
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV of parsed trace: %v", err)
		}
		back, err := ReadCSV(bytes.NewReader(buf.Bytes()), tr.Duration)
		if err != nil {
			t.Fatalf("re-reading written trace: %v\ncsv:\n%s", err, buf.String())
		}
		if len(back.Requests) != len(tr.Requests) {
			t.Fatalf("round trip changed request count: %d -> %d", len(tr.Requests), len(back.Requests))
		}
		for i := range back.Requests {
			if back.Requests[i].OutTokens != tr.Requests[i].OutTokens {
				t.Fatalf("row %d out_tokens changed: %d -> %d",
					i, tr.Requests[i].OutTokens, back.Requests[i].OutTokens)
			}
		}
	})
}
