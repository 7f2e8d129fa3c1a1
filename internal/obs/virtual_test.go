//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package obs

import (
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
