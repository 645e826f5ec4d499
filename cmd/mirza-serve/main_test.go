package main

import (
	"testing"
	"time"
)

// TestRefusesBadEnvironment: a malformed MIRZA_* override stops the daemon
// before it listens (exit 2) instead of failing every job it admits.
func TestRefusesBadEnvironment(t *testing.T) {
	for _, kv := range [][2]string{
		{"MIRZA_WORKLOADS", "xz,,nosuch"},
		{"MIRZA_MEASURE_MS", "abc"},
		{"MIRZA_REPLAY_WINDOWS", "1"},
	} {
		t.Setenv(kv[0], kv[1])
		exit := make(chan int, 1)
		go func() {
			exit <- run("127.0.0.1:0", 1, 1, 1, 1, time.Second, time.Second, time.Second, 0, 0, "", false, 1, false)
		}()
		select {
		case code := <-exit:
			if code != 2 {
				t.Errorf("%s=%q: exit %d, want 2", kv[0], kv[1], code)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s=%q: the daemon started", kv[0], kv[1])
		}
		t.Setenv(kv[0], "")
	}
}
