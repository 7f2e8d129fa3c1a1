//go:build !race

// Not under the race detector, which instruments the paths it measures.

package tenant

import "testing"

// TestGetAdmitAllocGuard pins the admission hot path every tenanted
// request takes: resolving the record (a registered id, an unknown id's
// default fallback) and the bucket decision allocate nothing.
func TestGetAdmitAllocGuard(t *testing.T) {
	reg, err := NewRegistry(Config{ID: "lim", Capacity: 1e9, RefillPerSec: 1e9}, Config{ID: "unlim"})
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(){
		"Get":             func() { reg.Get("lim") },
		"Get fallback":    func() { reg.Get("nobody") },
		"Admit limited":   func() { reg.Get("lim").Admit(64) },
		"Admit unlimited": func() { reg.Get("unlim").Admit(64) },
	} {
		if got := testing.AllocsPerRun(1000, f); got != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", name, got)
		}
	}
}
