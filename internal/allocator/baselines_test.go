package allocator

import (
	"testing"
	"testing/quick"
)

func TestEvenAllocation(t *testing.T) {
	n, err := EvenAllocation(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 2, 3, 3} // leftovers go to the largest runtimes
	for i := range want {
		if n[i] != want[i] {
			t.Fatalf("EvenAllocation(10, 4) = %v, want %v", n, want)
		}
	}
	if _, err := EvenAllocation(3, 4); err == nil {
		t.Error("too few GPUs should fail")
	}
	if _, err := EvenAllocation(3, 0); err == nil {
		t.Error("zero runtimes should fail")
	}
}

func TestEvenAllocationConserves(t *testing.T) {
	f := func(g, k uint8) bool {
		numRt := 1 + int(k)%16
		gpus := numRt + int(g)%100
		n, err := EvenAllocation(gpus, numRt)
		if err != nil {
			return false
		}
		sum := 0
		for _, v := range n {
			if v < 1 {
				return false
			}
			sum += v
		}
		return sum == gpus && n[numRt-1] >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestProportionalAllocation(t *testing.T) {
	q := []float64{300, 100, 0, 0}
	caps := []int{100, 100, 50, 25}
	n, err := ProportionalAllocation(8, q, caps)
	if err != nil {
		t.Fatal(err)
	}
	if sumInts(n) != 8 {
		t.Fatalf("allocation %v does not sum to 8", n)
	}
	if n[0] <= n[1] {
		t.Errorf("bin with 3x demand should get more GPUs: %v", n)
	}
	if n[3] < 1 {
		t.Errorf("largest runtime must keep an instance: %v", n)
	}
}

func TestProportionalAllocationZeroDemand(t *testing.T) {
	n, err := ProportionalAllocation(5, []float64{0, 0}, []int{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if n[1] != 5 || n[0] != 0 {
		t.Errorf("zero demand should park on the largest runtime, got %v", n)
	}
}

func TestProportionalAllocationValidation(t *testing.T) {
	if _, err := ProportionalAllocation(5, []float64{1}, []int{10, 10}); err == nil {
		t.Error("dimension mismatch should fail")
	}
	if _, err := ProportionalAllocation(0, []float64{1}, []int{10}); err == nil {
		t.Error("zero GPUs should fail")
	}
	if _, err := ProportionalAllocation(5, []float64{1}, []int{0}); err == nil {
		t.Error("zero capacity should fail")
	}
}

func TestProportionalAllocationConserves(t *testing.T) {
	f := func(a, b, c, d uint16, g uint8) bool {
		gpus := 1 + int(g)%200
		q := []float64{float64(a % 1000), float64(b % 1000), float64(c % 1000), float64(d % 1000)}
		caps := []int{120, 60, 40, 30}
		n, err := ProportionalAllocation(gpus, q, caps)
		if err != nil {
			return false
		}
		sum := 0
		for _, v := range n {
			if v < 0 {
				return false
			}
			sum += v
		}
		return sum == gpus && n[3] >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
