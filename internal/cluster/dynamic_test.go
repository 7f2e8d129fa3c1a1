package cluster

import (
	"testing"
	"time"
)

func TestAddRemoveInstance(t *testing.T) {
	p := testProfile(t, []int{64, 512})
	c, err := New(Config{Profile: p, InitialAllocation: []int{1, 1}, Dispatcher: rsFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	id, err := c.AddInstance(0)
	if err != nil {
		t.Fatal(err)
	}
	if id < 2 {
		t.Errorf("new instance ID = %d, want >= 2", id)
	}
	if got := c.Allocation(); got[0] != 2 || got[1] != 1 {
		t.Errorf("allocation = %v, want [2 1]", got)
	}
	removed, err := c.RemoveInstance(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Allocation(); got[0] != 1 {
		t.Errorf("after removal allocation = %v, want [1 1]", got)
	}
	_ = removed
	if _, err := c.AddInstance(7); err == nil {
		t.Error("out-of-range runtime should fail")
	}
	if _, err := c.AddInstance(-1); err == nil {
		t.Error("negative runtime should fail")
	}
}

func TestRemoveInstanceAnyPicksLeastBusy(t *testing.T) {
	p := testProfile(t, []int{64, 512})
	c, err := New(Config{Profile: p, InitialAllocation: []int{1, 1}, Dispatcher: rsFactory, Overhead: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Load the 64 instance with a few requests; the idle 512 instance is
	// then the least busy and should be removed first.
	for i := 0; i < 3; i++ {
		if _, err := submitAsync(c, 20); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.RemoveInstance(-1); err != nil {
		t.Fatal(err)
	}
	got := c.Allocation()
	if got[1] != 0 || got[0] != 1 {
		t.Errorf("allocation = %v, want the idle 512 instance removed", got)
	}
}

func TestRemoveInstanceErrors(t *testing.T) {
	p := testProfile(t, []int{64, 512})
	c, err := New(Config{Profile: p, InitialAllocation: []int{1, 0}, Dispatcher: rsFactory})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RemoveInstance(1); err == nil {
		t.Error("removing from an empty runtime should fail")
	}
	c.Close()
	if _, err := c.RemoveInstance(0); err != ErrClusterClosed {
		t.Errorf("remove after close = %v, want ErrClusterClosed", err)
	}
	if _, err := c.AddInstance(0); err != ErrClusterClosed {
		t.Errorf("add after close = %v, want ErrClusterClosed", err)
	}
}

func TestRemovedWorkerDrainsItsQueue(t *testing.T) {
	p := testProfile(t, []int{512})
	c, err := New(Config{Profile: p, InitialAllocation: []int{1}, Dispatcher: rsFactory, Overhead: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	chans := make([]<-chan time.Duration, 3)
	for i := range chans {
		ch, err := submitAsync(c, 100)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	if _, err := c.RemoveInstance(0); err != nil {
		t.Fatal(err)
	}
	// Every already-dispatched request still completes.
	for i, ch := range chans {
		select {
		case lat := <-ch:
			if lat <= 0 {
				t.Errorf("request %d latency %v", i, lat)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("request %d never completed after removal", i)
		}
	}
	// With no workers, a new submit fails cleanly.
	if _, err := c.Submit(100); err == nil {
		t.Error("submit to an empty cluster should fail")
	}
}

func TestReplaceSwapsRuntime(t *testing.T) {
	p := testProfile(t, []int{64, 512})
	c, err := New(Config{Profile: p, InitialAllocation: []int{2, 1}, Dispatcher: rsFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Replace(0, 1); err != nil {
		t.Fatal(err)
	}
	got := c.Allocation()
	if got[0] != 1 || got[1] != 2 {
		t.Errorf("allocation after replace = %v, want [1 2]", got)
	}
	if c.Instances() != 3 {
		t.Errorf("instances = %d, want 3", c.Instances())
	}
}

func TestOutstandingTracksLoad(t *testing.T) {
	p := testProfile(t, []int{512})
	c, err := New(Config{Profile: p, InitialAllocation: []int{1}, Dispatcher: rsFactory, Overhead: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ch, err := submitAsync(c, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Outstanding(); got != 1 {
		t.Errorf("outstanding = %d, want 1", got)
	}
	<-ch
	// Allow the worker's completion bookkeeping to land.
	deadline := time.Now().Add(time.Second)
	for c.Outstanding() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := c.Outstanding(); got != 0 {
		t.Errorf("outstanding after completion = %d, want 0", got)
	}
}
