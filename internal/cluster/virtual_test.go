//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package cluster

import (
	"context"
	"os"
	"sync/atomic"
	"testing"
	"testing/synctest"
)

// TestMain runs the package's tests inside one synctest bubble, so every
// time.Now, timer and sleep they reach reads the bubble's virtual clock
// (make virtual). The exit code leaves the bubble through an atomic.
func TestMain(m *testing.M) {
	var code atomic.Int32
	synctest.Run(func() { code.Store(int32(m.Run())) })
	os.Exit(int(code.Load()))
}

// TestIngressSubmitCtx is the wall-clock test's twin on virtual time
// (ingress_wall_test.go): the span is stamped as through Cluster.SubmitCtx,
// and ingress_wait is exactly 0, because the submitter drains its own
// group and no virtual time passes in the ring.
func TestIngressSubmitCtx(t *testing.T) {
	c := ingressCluster(t, []int{2}, []int{512})
	rec := c.Recorder()
	defer c.Close()
	g := NewIngress(c, IngressConfig{})
	defer g.Close()

	res, err := g.SubmitCtx(context.Background(), Request{Length: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Span.Enqueued.IsZero() || res.Span.Instance < 0 {
		t.Errorf("span not stamped: enqueued %v, instance %d", res.Span.Enqueued, res.Span.Instance)
	}
	if res.Span.Total <= 0 || res.Span.Exec <= 0 {
		t.Errorf("span total %v, exec %v, want both > 0", res.Span.Total, res.Span.Exec)
	}
	if res.Span.IngressWait != 0 {
		t.Errorf("span ingress_wait = %v, want 0 on virtual time", res.Span.IngressWait)
	}
	if got := rec.Completed(); got != 1 {
		t.Errorf("completed = %d, want 1", got)
	}
}
