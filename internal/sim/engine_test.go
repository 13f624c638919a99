package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	var e Engine
	var order []int
	e.At(30, func(Time) { order = append(order, 3) })
	e.At(10, func(Time) { order = append(order, 1) })
	e.At(20, func(Time) { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("final time = %d, want 30", end)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events ran out of schedule order: %v", order)
		}
	}
}

func TestEngineAfterChaining(t *testing.T) {
	var e Engine
	var times []Time
	var step func(now Time)
	step = func(now Time) {
		times = append(times, now)
		if len(times) < 5 {
			e.After(7, step)
		}
	}
	e.After(7, step)
	e.Run()
	for i, at := range times {
		if want := Time(7 * (i + 1)); at != want {
			t.Fatalf("times[%d] = %d, want %d", i, at, want)
		}
	}
}

func TestEnginePastPanics(t *testing.T) {
	var e Engine
	e.At(10, func(Time) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5, func(Time) {})
}

func TestEngineCancel(t *testing.T) {
	var e Engine
	ran := false
	ev := e.At(10, func(Time) { ran = true })
	e.Cancel(ev)
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	// Cancelling twice (or after running) is a no-op.
	e.Cancel(ev)
	ev2 := e.At(20, func(Time) {})
	e.Run()
	e.Cancel(ev2)
}

func TestEngineRunUntil(t *testing.T) {
	var e Engine
	var ran []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.At(at, func(now Time) { ran = append(ran, now) })
	}
	now := e.RunUntil(12)
	if now != 12 {
		t.Fatalf("RunUntil returned %d, want 12", now)
	}
	if len(ran) != 2 {
		t.Fatalf("ran %d events before deadline, want 2", len(ran))
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(ran) != 4 {
		t.Fatalf("ran %d events total, want 4", len(ran))
	}
}

func TestEngineMonotonicClockProperty(t *testing.T) {
	// Property: regardless of the (non-negative) delays scheduled, the
	// observed event times are non-decreasing.
	f := func(delays []uint16) bool {
		var e Engine
		var last Time = -1
		ok := true
		for _, d := range delays {
			e.After(Duration(d), func(now Time) {
				if now < last {
					ok = false
				}
				last = now
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEngineStep measures one event-loop step the way a replay uses
// it: pop the earliest of several pending events, run it, and schedule its
// successor. Sixteen self-rescheduling chains keep the heap as deep as a
// multi-tenant replay's; each op is one dispatched event.
func BenchmarkEngineStep(b *testing.B) {
	const chains = 16
	var e Engine
	left := b.N
	fns := make([]func(Time), chains)
	for i := range fns {
		i := i
		fns[i] = func(now Time) {
			if left > 0 {
				left--
				e.At(now+Time(1+i), fns[i])
			}
		}
		e.At(Time(i), fns[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
