package clock

import (
	"testing"
	"time"
)

func TestSchedulerStartsAtZero(t *testing.T) {
	s := New()
	if got := s.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestAfterFiresAtCorrectInstant(t *testing.T) {
	s := New()
	var fired time.Duration = -1
	s.After(10*time.Millisecond, func() { fired = s.Now() })
	s.RunUntil(time.Second)
	if fired != 10*time.Millisecond {
		t.Fatalf("event fired at %v, want 10ms", fired)
	}
}

func TestAtSchedulesAbsolute(t *testing.T) {
	s := New()
	var fired time.Duration = -1
	s.At(25*time.Millisecond, func() { fired = s.Now() })
	s.RunUntil(time.Second)
	if fired != 25*time.Millisecond {
		t.Fatalf("event fired at %v, want 25ms", fired)
	}
}

func TestAtPanicsOnPast(t *testing.T) {
	s := New()
	s.After(10*time.Millisecond, func() {})
	s.RunUntil(20 * time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.At(5*time.Millisecond, func() {})
}

func TestAtPanicsOnNilEvent(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil event")
		}
	}()
	s.At(0, nil)
}

func TestSameInstantFIFOOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*time.Millisecond, func() { order = append(order, i) })
	}
	s.RunUntil(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO tie-break violated)", i, v, i)
		}
	}
}

func TestInterleavedOrdering(t *testing.T) {
	s := New()
	var order []string
	s.At(30*time.Millisecond, func() { order = append(order, "c") })
	s.At(10*time.Millisecond, func() { order = append(order, "a") })
	s.At(20*time.Millisecond, func() { order = append(order, "b") })
	s.RunUntil(time.Second)
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunUntilAdvancesNowToDeadline(t *testing.T) {
	s := New()
	s.RunUntil(100 * time.Millisecond)
	if s.Now() != 100*time.Millisecond {
		t.Fatalf("Now() = %v, want 100ms", s.Now())
	}
}

func TestRunUntilDoesNotFireLaterEvents(t *testing.T) {
	s := New()
	fired := false
	s.After(200*time.Millisecond, func() { fired = true })
	s.RunUntil(100 * time.Millisecond)
	if fired {
		t.Fatal("event beyond deadline fired")
	}
	s.RunUntil(300 * time.Millisecond)
	if !fired {
		t.Fatal("event not fired after extending deadline")
	}
}

func TestEventAtDeadlineBoundaryFires(t *testing.T) {
	s := New()
	fired := false
	s.After(100*time.Millisecond, func() { fired = true })
	s.RunUntil(100 * time.Millisecond)
	if !fired {
		t.Fatal("event exactly at deadline should fire")
	}
}

func TestTimerStop(t *testing.T) {
	s := New()
	fired := false
	timer := s.After(10*time.Millisecond, func() { fired = true })
	if !timer.Stop() {
		t.Fatal("Stop() = false for pending timer")
	}
	if timer.Stop() {
		t.Fatal("second Stop() should return false")
	}
	s.RunUntil(time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestStopAfterFireReturnsFalse(t *testing.T) {
	s := New()
	timer := s.After(10*time.Millisecond, func() {})
	s.RunUntil(time.Second)
	if timer.Stop() {
		t.Fatal("Stop() after firing should return false")
	}
}

func TestEveryFiresPeriodically(t *testing.T) {
	s := New()
	var times []time.Duration
	s.Every(10*time.Millisecond, func() { times = append(times, s.Now()) })
	s.RunUntil(55 * time.Millisecond)
	if len(times) != 5 {
		t.Fatalf("got %d ticks, want 5: %v", len(times), times)
	}
	for i, at := range times {
		want := time.Duration(i+1) * 10 * time.Millisecond
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestEveryStop(t *testing.T) {
	s := New()
	count := 0
	timer := s.Every(10*time.Millisecond, func() { count++ })
	s.RunUntil(35 * time.Millisecond)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	timer.Stop()
	s.RunUntil(time.Second)
	if count != 3 {
		t.Fatalf("count = %d after stop, want 3", count)
	}
}

func TestEveryStopFromWithinCallback(t *testing.T) {
	s := New()
	count := 0
	var timer *Timer
	timer = s.Every(10*time.Millisecond, func() {
		count++
		if count == 2 {
			timer.Stop()
		}
	})
	s.RunUntil(time.Second)
	if count != 2 {
		t.Fatalf("count = %d, want 2 (stop from callback ineffective)", count)
	}
}

func TestEveryPanicsOnNonPositiveInterval(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero interval")
		}
	}()
	s.Every(0, func() {})
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Fatal("Step() on empty queue should return false")
	}
}

func TestStepSkipsDeadEvents(t *testing.T) {
	s := New()
	timer := s.After(time.Millisecond, func() {})
	fired := false
	s.After(2*time.Millisecond, func() { fired = true })
	timer.Stop()
	if !s.Step() {
		t.Fatal("Step() should fire the live event")
	}
	if !fired {
		t.Fatal("live event did not fire")
	}
}

func TestEventsScheduledDuringRunFire(t *testing.T) {
	s := New()
	var got []time.Duration
	s.After(time.Millisecond, func() {
		s.After(time.Millisecond, func() { got = append(got, s.Now()) })
	})
	s.RunUntil(time.Second)
	if len(got) != 1 || got[0] != 2*time.Millisecond {
		t.Fatalf("nested event = %v, want [2ms]", got)
	}
}

func TestPending(t *testing.T) {
	s := New()
	s.After(time.Millisecond, func() {})
	s.After(2*time.Millisecond, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", s.Pending())
	}
	s.RunUntil(time.Second)
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after run, want 0", s.Pending())
	}
}

func TestManyEventsOrdering(t *testing.T) {
	s := New()
	var last time.Duration = -1
	// Insert in a scrambled deterministic order.
	for i := 0; i < 1000; i++ {
		at := time.Duration((i*7919)%1000) * time.Microsecond
		s.At(at, func() {
			if s.Now() < last {
				t.Errorf("time went backwards: %v after %v", s.Now(), last)
			}
			last = s.Now()
		})
	}
	s.RunUntil(time.Second)
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, func() {})
		s.Step()
	}
}
