package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"arlo/internal/tokenizer"
	"arlo/internal/trace"
)

// Everything the servers receive is generated here from the seed: the
// text pool (lengths from trace.TwitterRecalibrated), the open-loop
// arrival schedules, the output budgets and the router's sampler seed.

// lexicon is the synthesiser's word stock: vocabulary words, words the
// WordPiece fallback splits into several pieces, and punctuation, so the
// tokenizer does representative work.
var lexicon = strings.Fields(`the of and to in is was for it with as on be at by this
	not are but from have they which you were all there would their been when who will
	more about into than them only other new some time these first now like our over
	even most after also many before through back years where much your well down
	because people world still work long here between life never another while last
	great since against right house during without again place around however home
	school every number always something water public think enough government system
	better nothing night program city business group young model data news today love
	really happy twitter tweet post follow share best thanks video game team music
	serving latency request tokens dispatch scheduler throughput transformer inference
	allocation congestion runtime polymorph demotion benchmark , . ! ? : ; - ( )`)

// pooledText is one pre-generated input and what the harness knows of it.
type pooledText struct {
	text   string
	length int // len(tokenizer.Encode(text, maxLength)), the expected sequence_length
}

// request is one scheduled operation.
type request struct {
	due    time.Duration // offset from the run's start (open loop only)
	pool   int           // text pool index
	budget int           // max_new_tokens (generate only)
	stream int
}

// inputs is one workload's generated stimulus.
type inputs struct {
	pool []pooledText
	// budgets is the per-pool-slot output budget (generate only): a text
	// always asks for the same number of tokens, so replies can be checked.
	budgets []int
	// warm and measured are the open-loop schedules per stream, already
	// offset so warm-up arrivals precede the measured window.
	warm, measured [][]request
	routerSeed     int64
}

// poolLengths draws the pool's lengths from the long-window mixture of the
// seeded sampler: one draw per trace minute, so the per-minute drift and
// noise of DriftingLengths average out and every seed offers the same
// length mix (the property the allocator's demand input depends on).
func poolLengths(seed int64, rng *rand.Rand) []int {
	sampler := trace.TwitterRecalibrated(seed)
	out := make([]int, poolSize)
	for i := range out {
		l := sampler.SampleLength(rng, time.Duration(i)*time.Minute)
		if l < 3 {
			l = 3 // [CLS] word [SEP]: the shortest non-empty text
		}
		out[i] = l
	}
	return out
}

// synthesise builds a text that encodes to exactly length tokens.
func synthesise(pieces []int, rng *rand.Rand, length int) string {
	var b strings.Builder
	remaining := length - 2
	for remaining > 0 {
		w := rng.Intn(len(lexicon))
		if pieces[w] > remaining {
			w = 0 // "the": one piece, always fits
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(lexicon[w])
		remaining -= pieces[w]
	}
	return b.String()
}

// schedule draws n arrivals of the process and rescales them onto
// [from, from+span): every seed then offers exactly the same load, and
// only its order and burst placement differ.
func schedule(rng *rand.Rand, proc trace.ArrivalProcess, n int, from, span time.Duration) []time.Duration {
	var ats []time.Duration
	horizon := time.Duration(0)
	for len(ats) <= n {
		// Draw further windows until the (n+1)th arrival exists; it marks
		// the end of the rescaled span.
		for _, at := range proc.Arrivals(rng, 2*span) {
			ats = append(ats, horizon+at)
		}
		horizon += 2 * span
	}
	scale := float64(span) / float64(ats[n])
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = from + time.Duration(float64(ats[i])*scale)
	}
	return out
}

// burstyProcess is trace.BurstyAround's MMPP (0.7x calm, 1.6x bursts,
// 22:6 sojourn ratio) with the sojourns compressed 40x, so that each
// measured slice holds several whole calm/burst cycles.
func burstyProcess(rate float64) trace.MMPP {
	m := trace.BurstyAround(rate)
	m.MeanLow /= 40
	m.MeanHigh /= 40
	return m
}

func generateInputs(w *workload, seed int64, tok *tokenizer.Tokenizer, warm, measure time.Duration) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{routerSeed: seed}

	pieces := make([]int, len(lexicon))
	for i, word := range lexicon {
		pieces[i] = tok.SequenceLength(word) - 2
	}
	if pieces[0] != 1 {
		return nil, fmt.Errorf("inputs: filler word %q is %d pieces, want 1", lexicon[0], pieces[0])
	}
	in.pool = make([]pooledText, poolSize)
	for i, l := range poolLengths(seed, rng) {
		text := synthesise(pieces, rng, l)
		if got := tok.SequenceLength(text); got != l {
			return nil, fmt.Errorf("inputs: text %d encodes to %d tokens, want %d", i, got, l)
		}
		in.pool[i] = pooledText{text: text, length: len(tok.Encode(text, maxLength))}
	}
	if w.generate {
		outs := trace.GeometricOutputs{Mean: 32, Max: 128}
		in.budgets = make([]int, poolSize)
		for i := range in.budgets {
			in.budgets[i] = outs.SampleOutput(rng, 0)
		}
	}

	next := 0 // pool cursor shared by all streams: texts are cycled
	for si, s := range w.streams {
		var proc trace.ArrivalProcess = trace.Poisson{Rate: s.rate}
		if s.process == bursty {
			proc = burstyProcess(s.rate)
		}
		build := func(from, span time.Duration) []request {
			n := int(s.rate * span.Seconds())
			reqs := make([]request, n)
			for i, at := range schedule(rng, proc, n, from, span) {
				reqs[i] = request{due: at, pool: next % poolSize, stream: si}
				if w.generate {
					reqs[i].budget = in.budgets[reqs[i].pool]
				}
				next++
			}
			return reqs
		}
		in.warm = append(in.warm, build(0, warm))
		// The measured window is scheduled slice by slice, so that every
		// slice (and so every seed) offers exactly rate x slice requests;
		// bursts fall where the seed puts them inside each slice.
		var measured []request
		for k := time.Duration(0); k < openSlices; k++ {
			measured = append(measured, build(warm+k*measure/openSlices, measure/openSlices)...)
		}
		in.measured = append(in.measured, measured)
	}
	return in, nil
}

// demand is the allocator's Q_i input: requests per SLO window in each
// runtime's length bin, from the pool's own length mix at the workload's
// offered rate.
func (in *inputs) demand(runtimes []int, rate float64) []float64 {
	lengths := make([]int, len(in.pool))
	for i, p := range in.pool {
		lengths[i] = p.length
	}
	q := make([]float64, len(runtimes))
	for i, c := range trace.BinCounts(lengths, runtimes) {
		q[i] = float64(c) / float64(len(lengths)) * rate * slo.Seconds()
	}
	return q
}

// clip returns the inputs with every open-loop schedule cut at the given
// run offset: the traced replay sends the head of the same schedule.
func (in *inputs) clip(until time.Duration) *inputs {
	out := *in
	out.measured = make([][]request, len(in.measured))
	for si, reqs := range in.measured {
		n := 0
		for n < len(reqs) && reqs[n].due < until {
			n++
		}
		out.measured[si] = reqs[:n]
	}
	return &out
}
