package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"arlo/internal/dispatch"
	"arlo/internal/trace"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{1, 0},
		{125 * time.Microsecond, 0},
		{125*time.Microsecond + 1, 1},
		{250 * time.Microsecond, 1},
		{251 * time.Microsecond, 2},
		{time.Millisecond, 3},
		{time.Second, 13},
		{65 * time.Second, 19},
		{66 * time.Second, bucketInf},
		{time.Hour, bucketInf},
	}
	for _, tc := range cases {
		if got := bucketOf(tc.d); got != tc.want {
			t.Errorf("bucketOf(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
	// Every finite bucket's boundary must classify into that bucket.
	for b := 0; b < numBuckets; b++ {
		le := time.Duration(bucketLE(b) * float64(time.Second))
		if got := bucketOf(le); got != b {
			t.Errorf("boundary of bucket %d (%v) classified into %d", b, le, got)
		}
	}
}

// TestInFlight pins the one definition of "in flight": submitted minus
// every way a submission resolves.
func TestInFlight(t *testing.T) {
	r := NewRecorder(1)
	for i := 0; i < 3; i++ {
		r.RecordSubmit(64)
	}
	r.RecordSpan(&Span{Total: time.Millisecond})
	if got := r.InFlight(); got != 2 {
		t.Errorf("in flight = %d after 3 submits and 1 completion, want 2", got)
	}
	r.RecordCancel()
	r.RecordReject(RejectDeadline)
	if got := r.InFlight(); got != 0 {
		t.Errorf("in flight = %d at rest, want 0", got)
	}
}

func TestRecorderCounts(t *testing.T) {
	r := NewRecorder(4)
	r.RecordSubmit(64)
	r.RecordSubmit(64)
	r.RecordDemotion(0, 2)
	r.RecordDemotion(0, 2)
	r.RecordDemotion(1, 3)
	r.RecordSpan(&Span{Length: 10, Queue: time.Millisecond, Exec: 2 * time.Millisecond, Total: 3 * time.Millisecond})
	r.RecordCancel()
	r.RecordReject(RejectTooLong)
	r.RecordReject(RejectCongested)

	if got := r.Submitted(); got != 2 {
		t.Errorf("submitted = %d, want 2", got)
	}
	if got := r.Completed(); got != 1 {
		t.Errorf("completed = %d, want 1", got)
	}
	if got := r.Cancelled(); got != 1 {
		t.Errorf("cancelled = %d, want 1", got)
	}
	if got := r.Rejected(); got != 2 {
		t.Errorf("rejected = %d, want 2", got)
	}
	if got := r.Demotions(0, 2); got != 2 {
		t.Errorf("demotions(0,2) = %d, want 2", got)
	}
	if got := r.Demotions(1, 3); got != 1 {
		t.Errorf("demotions(1,3) = %d, want 1", got)
	}
	// Out-of-range pairs are dropped, not panics.
	r.RecordDemotion(-1, 0)
	r.RecordDemotion(0, 99)
	if got := r.Demotions(0, 0); got != 0 {
		t.Errorf("demotions(0,0) = %d, want 0", got)
	}
}

func TestSpanDemotionHops(t *testing.T) {
	s := Span{Decision: dispatch.Decision{IdealLevel: 1, Level: 4}}
	if got := s.DemotionHops(); got != 3 {
		t.Errorf("hops = %d, want 3", got)
	}
	s = Span{Decision: dispatch.Decision{IdealLevel: 2, Level: 2}}
	if got := s.DemotionHops(); got != 0 {
		t.Errorf("hops = %d, want 0", got)
	}
	// A promotion (shouldn't happen, but) never reports negative hops.
	s = Span{Decision: dispatch.Decision{IdealLevel: 3, Level: 1}}
	if got := s.DemotionHops(); got != 0 {
		t.Errorf("hops = %d, want 0", got)
	}
}

func TestWritePrometheusShape(t *testing.T) {
	r := NewRecorder(3)
	r.RecordSubmit(64)
	r.RecordDemotion(0, 1)
	r.RecordSpan(&Span{Length: 64, Decision: dispatch.Decision{Instance: 5}, Queue: time.Millisecond, Exec: 40 * time.Millisecond, Total: 42 * time.Millisecond})
	r.SetSnapshot(func() Snapshot {
		return Snapshot{
			Levels: []LevelStat{
				{Level: 0, MaxLength: 64, Instances: 2, Depth: 3},
				{Level: 1, MaxLength: 128, Instances: 1, Depth: 0},
			},
			Instances: []InstanceStat{
				{ID: 0, Runtime: 0, Outstanding: 3, Capacity: 6},
			},
		}
	})

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE arlo_requests_submitted_total counter",
		"arlo_requests_submitted_total 1",
		"# TYPE arlo_requests_in_flight gauge",
		"arlo_requests_in_flight 0",
		"# TYPE arlo_demotions_total counter",
		`arlo_demotions_total{from="0",to="1"} 1`,
		"# TYPE arlo_queue_depth gauge",
		`arlo_queue_depth{level="0",max_length="64"} 3`,
		`arlo_queue_depth{level="1",max_length="128"} 0`,
		`arlo_level_instances{level="0",max_length="64"} 2`,
		`arlo_instance_outstanding{instance="0",runtime="0"} 3`,
		`arlo_instance_utilization{instance="0",runtime="0"} 0.5`,
		"# TYPE arlo_request_latency_seconds histogram",
		`arlo_request_latency_seconds_bucket{le="+Inf"} 1`,
		"arlo_request_latency_seconds_count 1",
		`arlo_requests_rejected_total{reason="too_long"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// Histogram buckets must be cumulative: the +Inf bucket equals the
	// count, and earlier buckets never exceed later ones.
	cum, count, _ := r.totalH.snapshot()
	if cum[bucketInf] != count {
		t.Errorf("+Inf bucket %d != count %d", cum[bucketInf], count)
	}
	for b := 1; b <= numBuckets; b++ {
		if cum[b] < cum[b-1] {
			t.Errorf("bucket %d (%d) < bucket %d (%d): not cumulative", b, cum[b], b-1, cum[b-1])
		}
	}
}

func TestHandlerServesMetrics(t *testing.T) {
	r := NewRecorder(2)
	r.RecordSubmit(64)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Errorf("content type = %q, want %q", ct, ContentType)
	}

	post, err := ts.Client().Post(ts.URL, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != 405 {
		t.Errorf("POST status = %d, want 405", post.StatusCode)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(4)
	r.SetLengthBins([]int{64, 128, 256, 512})
	const (
		goroutines = 8
		perG       = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s := Span{
					Length:   1 + (g*perG+i)%512,
					Decision: dispatch.Decision{Instance: g, Level: (g + i) % 4},
					Queue:    time.Duration(i) * time.Microsecond,
					Exec:     time.Duration(i) * 10 * time.Microsecond,
					Total:    time.Duration(i) * 11 * time.Microsecond,
				}
				if i%7 == 0 {
					r.RecordDemotion(i%4, (i+1)%4)
				}
				r.RecordSubmit(s.Length)
				r.RecordSpan(&s)
			}
		}(g)
	}
	wg.Wait()
	if got := r.Submitted(); got != goroutines*perG {
		t.Errorf("submitted = %d, want %d", got, goroutines*perG)
	}
	// No concurrent submission is lost from, or booked twice in, its bin.
	lengths := make([]int, goroutines*perG)
	for i := range lengths {
		lengths[i] = 1 + i%512
	}
	want := trace.BinCounts(lengths, []int{64, 128, 256, 512})
	for b, n := range r.TakeArrivals() {
		if n != int64(want[b]) {
			t.Errorf("arrival bin %d = %d, want %d", b, n, want[b])
		}
	}
	if got := r.Completed(); got != goroutines*perG {
		t.Errorf("completed = %d, want %d", got, goroutines*perG)
	}
	_, count, _ := r.totalH.snapshot()
	if count != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", count, goroutines*perG)
	}
}
