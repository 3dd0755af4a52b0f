package comm

import (
	"runtime"
	"testing"
	"time"
)

// TestRecvTimeoutBasics: a timed receive returns the message when one is
// queued, times out when none arrives, and still matches a late arrival.
func TestRecvTimeoutBasics(t *testing.T) {
	w := NewWorld(2)
	c0, c1 := w.Comm(0), w.Comm(1)

	c1.Send(0, 7, []float32{42})
	msg, err := c0.RecvTimeout(1, 7, 50*time.Millisecond)
	if err != nil || len(msg) != 1 || msg[0] != 42 {
		t.Fatalf("queued message: got %v, %v", msg, err)
	}
	c0.Release(msg)

	start := time.Now()
	if _, err := c0.RecvTimeout(1, 7, 20*time.Millisecond); err != ErrTimeout {
		t.Fatalf("empty line: got err %v, want ErrTimeout", err)
	}
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Fatalf("timed out after %v, want ~20ms", el)
	}

	go func() {
		time.Sleep(10 * time.Millisecond)
		c1.Dup().Send(0, 7, []float32{7})
	}()
	msg, err = c0.RecvTimeout(1, 7, time.Second)
	if err != nil || msg[0] != 7 {
		t.Fatalf("late arrival: got %v, %v", msg, err)
	}
	c0.Release(msg)
}

// TestKillAtSendCount: with Kill{1: 3}, rank 1's third send panics with the
// kill sentinel, RecoverKilled absorbs it, and only the first two messages
// were delivered.
func TestKillAtSendCount(t *testing.T) {
	w := NewWorld(2)
	w.SetFaultPlan(&FaultPlan{Kill: map[int]int{1: 3}})
	c0, c1 := w.Comm(0), w.Comm(1)

	done := make(chan bool, 1)
	go func() {
		exited := true
		defer func() { done <- exited }()
		defer RecoverKilled()
		for i := 0; i < 10; i++ {
			c1.Send(0, 5, []float32{float32(i)})
		}
		exited = false // unreachable: the third send must kill the rank
	}()
	if clean := <-done; !clean {
		t.Fatal("rank 1 sent all 10 messages; kill at send 3 never fired")
	}
	if !w.Failed(1) {
		t.Fatal("rank 1 not marked failed after kill")
	}
	for i := 0; i < 2; i++ {
		msg, err := c0.RecvTimeout(1, 5, 50*time.Millisecond)
		if err != nil || msg[0] != float32(i) {
			t.Fatalf("message %d: got %v, %v", i, msg, err)
		}
		c0.Release(msg)
	}
	if _, err := c0.RecvTimeout(1, 5, 20*time.Millisecond); err != ErrPeerDead {
		t.Fatalf("receive from dead rank: got %v, want ErrPeerDead", err)
	}
}

// TestFailWakesBlockedReceiver: a receiver blocked (with a long timeout) on
// a peer that World.Fail marks dead wakes promptly with ErrPeerDead, and a
// blocked plain Recv on the dead peer fail-stops the receiving rank.
func TestFailWakesBlockedReceiver(t *testing.T) {
	w := NewWorld(3)
	c0 := w.Comm(0)

	errc := make(chan error, 1)
	go func() {
		_, err := c0.RecvTimeout(1, 9, 10*time.Second)
		errc <- err
	}()
	recvDead := make(chan struct{})
	go func() {
		defer close(recvDead)
		defer RecoverKilled()
		w.Comm(2).Recv(1, 9) // never satisfied; must panic-unwind on Fail(1)
	}()
	time.Sleep(10 * time.Millisecond) // let both block
	w.Fail(1)
	select {
	case err := <-errc:
		if err != ErrPeerDead {
			t.Fatalf("timed receive: got %v, want ErrPeerDead", err)
		}
	case <-time.After(time.Second):
		t.Fatal("timed receive still blocked 1s after Fail")
	}
	select {
	case <-recvDead:
	case <-time.After(time.Second):
		t.Fatal("blocking Recv did not unwind after peer Fail")
	}
}

// TestReviveRestoresTraffic: after Fail + Revive (with a mailbox DrainAll), a
// fresh goroutine serves the rank again and the consumed kill trigger does
// not re-fire.
func TestReviveRestoresTraffic(t *testing.T) {
	w := NewWorld(2)
	w.SetFaultPlan(&FaultPlan{Kill: map[int]int{1: 1}})
	c0 := w.Comm(0)

	run := func() bool {
		clean := make(chan bool, 1)
		go func() {
			ok := false
			defer func() { clean <- ok }()
			defer RecoverKilled()
			c := w.Comm(1)
			c.Send(0, 3, []float32{1})
			ok = true
		}()
		return <-clean
	}
	if run() {
		t.Fatal("first incarnation survived; kill at send 1 never fired")
	}
	w.Revive(1)
	w.Comm(1).DrainAll()
	if !run() {
		t.Fatal("revived rank was killed again; trigger should be consumed")
	}
	msg, err := c0.RecvTimeout(1, 3, 100*time.Millisecond)
	if err != nil || msg[0] != 1 {
		t.Fatalf("post-revive message: got %v, %v", msg, err)
	}
	c0.Release(msg)
}

// TestDropDeterministic: the same seed yields the same delivered subsequence
// across two independent worlds, and a different seed yields a different one.
func TestDropDeterministic(t *testing.T) {
	const n = 200
	deliver := func(seed int64) []float32 {
		w := NewWorld(2)
		w.SetFaultPlan(&FaultPlan{Seed: seed, Drop: 0.3})
		c1 := w.Comm(1)
		for i := 0; i < n; i++ {
			c1.Send(0, 4, []float32{float32(i)})
		}
		c0 := w.Comm(0)
		var got []float32
		for {
			msg, ok := c0.TryRecv(1, 4)
			if !ok {
				break
			}
			got = append(got, msg[0])
			c0.Release(msg)
		}
		return got
	}
	a, b := deliver(11), deliver(11)
	if len(a) == 0 || len(a) == n {
		t.Fatalf("drop 0.3 delivered %d/%d messages; injection inert", len(a), n)
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different delivery counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := deliver(12)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

// TestDupDeliversTwice: with Dup 1.0 every user message arrives exactly
// twice, intact.
func TestDupDeliversTwice(t *testing.T) {
	w := NewWorld(2)
	w.SetFaultPlan(&FaultPlan{Seed: 1, Dup: 1.0})
	w.Comm(1).Send(0, 2, []float32{5, 6})
	c0 := w.Comm(0)
	for i := 0; i < 2; i++ {
		msg, err := c0.RecvTimeout(1, 2, 100*time.Millisecond)
		if err != nil || len(msg) != 2 || msg[0] != 5 || msg[1] != 6 {
			t.Fatalf("copy %d: got %v, %v", i, msg, err)
		}
		c0.Release(msg)
	}
	if _, ok := c0.TryRecv(1, 2); ok {
		t.Fatal("more than two copies delivered")
	}
}

// TestCollectivesSurviveChaos: heavy drop/dup/delay on user-tag traffic must
// leave collective-tag traffic untouched — allreduce over a chaotic world
// still returns exact sums.
func TestCollectivesSurviveChaos(t *testing.T) {
	w := NewWorld(4)
	w.SetFaultPlan(&FaultPlan{Seed: 3, Drop: 0.5, Dup: 0.5, Delay: 0.5, MaxDelay: 100 * time.Microsecond})
	w.Run(func(c *Comm) {
		for iter := 0; iter < 20; iter++ {
			// Interleave chaotic user-tag sends so the RNG streams advance.
			c.Send((c.Rank()+1)%c.Size(), 1, []float32{1})
			buf := []float32{float32(c.Rank() + 1)}
			c.Allreduce(buf, OpSum)
			if buf[0] != 10 {
				t.Errorf("iter %d rank %d: allreduce got %v, want 10", iter, c.Rank(), buf[0])
			}
		}
	})
}

// TestEngineSurvivesKill: a kill that surfaces on the proxy goroutine (the
// fatal send happens inside an engine-submitted op) completes the queued
// requests so waiters wake, instead of crashing the process.
func TestEngineSurvivesKill(t *testing.T) {
	w := NewWorld(2)
	w.SetFaultPlan(&FaultPlan{Kill: map[int]int{1: 2}})
	c1 := w.Comm(1)

	done := make(chan struct{})
	go func() {
		defer close(done)
		defer RecoverKilled()
		// Two proxy sends: the second trips the kill inside the proxy
		// goroutine. Both requests must still complete.
		r1 := c1.Do(func(p *Comm) { p.Send(0, 1, []float32{1}) })
		r2 := c1.Do(func(p *Comm) { p.Send(0, 1, []float32{2}) })
		r1.Wait()
		r2.Wait()
		// The rank is dead now; its next direct op must unwind it.
		c1.Send(0, 1, []float32{3})
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter hung on requests of a killed proxy engine")
	}
	if !w.Failed(1) {
		t.Fatal("rank 1 not marked failed")
	}
	w.Shutdown() // must join the retired engine without hanging
}

// TestNoGoroutineLeakAfterFail: killed ranks and their retired engines leave
// no goroutines behind.
func TestNoGoroutineLeakAfterFail(t *testing.T) {
	before := runtime.NumGoroutine()
	for iter := 0; iter < 5; iter++ {
		w := NewWorld(3)
		w.SetFaultPlan(&FaultPlan{Kill: map[int]int{2: 4}})
		w.Run(func(c *Comm) {
			defer RecoverKilled()
			for i := 0; i < 10; i++ {
				c.Do(func(p *Comm) { p.Send((c.Rank()+1)%3, 1, []float32{1}) }).Wait()
				for {
					if _, ok := c.TryRecv((c.Rank()+2)%3, 1); !ok {
						break
					}
				}
			}
		})
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after fault-injected runs", before, runtime.NumGoroutine())
}

// Failed reports whether rank is currently marked dead.
func (w *World) Failed(rank int) bool { return w.fault.dead[rank].Load() }
