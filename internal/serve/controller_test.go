package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"arlo/internal/allocator"
	"arlo/internal/cluster"
	"arlo/internal/controller"
	"arlo/internal/dispatch"
	"arlo/internal/model"
	"arlo/internal/profiler"
	"arlo/internal/queue"
	"arlo/internal/tokenizer"
)

// testController builds a cluster plus a (stopped) control loop over it.
func testController(t *testing.T) (*cluster.Cluster, *controller.Controller) {
	t.Helper()
	p, err := profiler.StaticProfile(model.BertBase(), model.BertBaseArch.RuntimeLengths(), 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Profile:           p,
		InitialAllocation: []int{1, 1, 1, 1, 1, 1, 1, 1},
		Dispatcher: func(ml *queue.MultiLevel) (dispatch.Dispatcher, error) {
			return dispatch.NewRequestScheduler(ml)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	solver, err := allocator.NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.New(cl, solver, controller.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return cl, ctrl
}

func TestControllerEndpoint(t *testing.T) {
	cl, ctrl := testController(t)
	srv, err := New(tokenizer.New(), cl, WithController(ctrl))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/controller")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/controller = %d, want 200", resp.StatusCode)
	}
	var st controller.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.GPUs != 8 || len(st.Allocation) != 8 {
		t.Errorf("status reports %d GPUs, allocation %v; want 8 instances", st.GPUs, st.Allocation)
	}
	if st.Running {
		t.Error("loop was never started but reports running")
	}

	post, err := http.Post(ts.URL+"/v1/controller", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer post.Body.Close()
	var env ErrorEnvelope
	if err := json.NewDecoder(post.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if post.StatusCode != http.StatusMethodNotAllowed || env.Error.Code != CodeMethodNotAllowed {
		t.Errorf("POST = %d %q, want 405 %s", post.StatusCode, env.Error.Code, CodeMethodNotAllowed)
	}
}

func TestControllerEndpointAbsent(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/controller")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound || env.Error.Code != CodeNotFound {
		t.Errorf("GET without controller = %d %q, want 404 %s", resp.StatusCode, env.Error.Code, CodeNotFound)
	}
}

func TestWithControllerNil(t *testing.T) {
	_, cl := testServer(t)
	if _, err := New(tokenizer.New(), cl, WithController(nil)); err == nil {
		t.Error("nil controller should fail construction")
	}
}
