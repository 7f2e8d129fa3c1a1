//go:build !goexperiment.synctest

package cluster

import (
	"context"
	"testing"
)

// TestIngressSubmitCtx pins the drop-in contract: a request through the
// ring completes like one through Cluster.SubmitCtx, and its span gains
// the ingress_wait stage.
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
	if res.Span.Total <= 0 {
		t.Errorf("latency = %v, want > 0", res.Span.Total)
	}
	if res.Span.IngressWait <= 0 {
		t.Errorf("span ingress_wait = %v, want > 0", res.Span.IngressWait)
	}
	if res.Span.Exec <= 0 {
		t.Errorf("span exec = %v, want > 0", res.Span.Exec)
	}
	if got := rec.Completed(); got != 1 {
		t.Errorf("completed = %d, want 1", got)
	}
}
