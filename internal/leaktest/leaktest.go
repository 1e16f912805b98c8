// Package leaktest holds the goroutine-leak assertion shared by the
// engine, daemon and cluster tests.
package leaktest

import (
	"runtime"
	"testing"
	"time"
)

// Settles asserts that the goroutine count returns to base (taken with
// runtime.NumGoroutine before the code under test started) within five
// seconds: every goroutine the run started must have exited. On a miss
// it fails the test with a dump of every live goroutine's stack.
func Settles(t testing.TB, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines after the run, %d before:\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
