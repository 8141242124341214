package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.Schedule(30*Millisecond, func() { got = append(got, 3) })
	k.Schedule(10*Millisecond, func() { got = append(got, 1) })
	k.Schedule(20*Millisecond, func() { got = append(got, 2) })
	k.RunUntilIdle()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30*Millisecond {
		t.Fatalf("Now() = %v, want 30ms", k.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5*Millisecond, func() { got = append(got, i) })
	}
	k.RunUntilIdle()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(10*Millisecond, func() {})
	k.RunUntilIdle()
	fired := false
	k.Schedule(-5*Millisecond, func() { fired = true })
	k.RunUntilIdle()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if k.Now() != 10*Millisecond {
		t.Fatalf("clock moved backwards: %v", k.Now())
	}
}

func TestAtPastClamped(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(20*Millisecond, func() {})
	k.RunUntilIdle()
	var at Time
	k.At(5*Millisecond, func() { at = k.Now() })
	k.RunUntilIdle()
	if at != 20*Millisecond {
		t.Fatalf("past At fired at %v, want clamp to 20ms", at)
	}
}

func TestTimerCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	tm := k.Schedule(10*Millisecond, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending before run")
	}
	if !tm.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	k.RunUntilIdle()
	if fired {
		t.Fatal("canceled timer fired")
	}
	if tm.Pending() {
		t.Fatal("canceled timer still pending")
	}
}

func TestTimerPendingAfterFire(t *testing.T) {
	k := NewKernel(1)
	tm := k.Schedule(1*Millisecond, func() {})
	k.RunUntilIdle()
	if tm.Pending() {
		t.Fatal("fired timer reports pending")
	}
	if tm.Cancel() {
		t.Fatal("Cancel after fire should report false")
	}
}

func TestRunHorizon(t *testing.T) {
	k := NewKernel(1)
	fired := make([]bool, 2)
	k.Schedule(10*Millisecond, func() { fired[0] = true })
	k.Schedule(30*Millisecond, func() { fired[1] = true })
	k.Run(20 * Millisecond)
	if !fired[0] || fired[1] {
		t.Fatalf("horizon run executed wrong events: %v", fired)
	}
	if k.Now() != 20*Millisecond {
		t.Fatalf("clock after horizon run = %v, want 20ms", k.Now())
	}
	k.Run(40 * Millisecond)
	if !fired[1] {
		t.Fatal("second run did not execute deferred event")
	}
}

func TestRunForComposes(t *testing.T) {
	k := NewKernel(1)
	count := 0
	tk, err := k.Every(10*Millisecond, func() { count++ })
	if err != nil {
		t.Fatal(err)
	}
	k.RunFor(35 * Millisecond)
	if count != 3 {
		t.Fatalf("ticks after 35ms = %d, want 3", count)
	}
	k.RunFor(35 * Millisecond)
	if count != 7 {
		t.Fatalf("ticks after 70ms = %d, want 7", count)
	}
	tk.Stop()
	k.RunFor(100 * Millisecond)
	if count != 7 {
		t.Fatalf("ticker fired after Stop: %d", count)
	}
}

func TestEveryRejectsNonPositive(t *testing.T) {
	k := NewKernel(1)
	if _, err := k.Every(0, func() {}); err == nil {
		t.Fatal("Every(0) should error")
	}
	if _, err := k.Every(-Second, func() {}); err == nil {
		t.Fatal("Every(-1s) should error")
	}
}

func TestStopInsideEvent(t *testing.T) {
	k := NewKernel(1)
	ran := 0
	k.Schedule(Millisecond, func() { ran++; k.Stop() })
	k.Schedule(2*Millisecond, func() { ran++ })
	k.Run(10 * Millisecond)
	if ran != 1 {
		t.Fatalf("Stop did not halt loop: ran=%d", ran)
	}
	k.Run(10 * Millisecond)
	if ran != 2 {
		t.Fatalf("run after Stop did not resume: ran=%d", ran)
	}
}

func TestDeterminismAcrossKernels(t *testing.T) {
	trace := func(seed int64) []int64 {
		k := NewKernel(seed)
		var out []int64
		for i := 0; i < 50; i++ {
			d := Time(k.Rand().Intn(1000)) * Millisecond
			k.Schedule(d, func() { out = append(out, int64(k.Now())) })
		}
		k.RunUntilIdle()
		return out
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatal("trace lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("determinism violated at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := true
	for i := range a {
		if i >= len(c) || a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

func TestTimeConversions(t *testing.T) {
	if FromDuration(1500*time.Millisecond) != 1500*Millisecond {
		t.Fatal("FromDuration mismatch")
	}
	if FromSeconds(2.5) != 2500*Millisecond {
		t.Fatal("FromSeconds mismatch")
	}
	if (3 * Second).Seconds() != 3.0 {
		t.Fatal("Seconds() mismatch")
	}
	if (2 * Millisecond).Duration() != 2*time.Millisecond {
		t.Fatal("Duration() mismatch")
	}
}

// Property: events always execute in non-decreasing time order regardless of
// the scheduling pattern.
func TestPropertyMonotonicExecution(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel(7)
		var times []Time
		for _, d := range delays {
			k.Schedule(Time(d)*Microsecond, func() {
				times = append(times, k.Now())
			})
		}
		k.RunUntilIdle()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: nested scheduling from inside events preserves ordering and
// executes everything.
func TestPropertyNestedScheduling(t *testing.T) {
	f := func(spec []uint8) bool {
		k := NewKernel(11)
		executed := 0
		total := 0
		for _, n := range spec {
			nested := int(n % 5)
			total += 1 + nested
			k.Schedule(Time(n)*Millisecond, func() {
				executed++
				for j := 0; j < nested; j++ {
					k.Schedule(Time(j)*Microsecond, func() { executed++ })
				}
			})
		}
		k.RunUntilIdle()
		return executed == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDriftClock(t *testing.T) {
	k := NewKernel(1)
	fast := NewDriftClock(k, 100e-6, 0) // +100 ppm
	slow := NewDriftClock(k, -100e-6, 0)
	ref := NewDriftClock(k, 0, 0)
	k.Schedule(10*Second, func() {})
	k.RunUntilIdle()
	if ref.Now() != 10*Second {
		t.Fatalf("zero-drift clock = %v, want 10s", ref.Now())
	}
	// After 10 s, ±100 ppm is ±1 ms.
	if got := fast.ErrorVersus(ref); got != Millisecond {
		t.Fatalf("fast clock error = %v, want 1ms", got)
	}
	if got := slow.ErrorVersus(ref); got != -Millisecond {
		t.Fatalf("slow clock error = %v, want -1ms", got)
	}
	fast.Adjust(-Millisecond)
	if got := fast.ErrorVersus(ref); got != 0 {
		t.Fatalf("adjusted clock error = %v, want 0", got)
	}
	if fast.Offset() != -Millisecond {
		t.Fatalf("offset = %v, want -1ms", fast.Offset())
	}
	if fast.Drift() != 100e-6 {
		t.Fatalf("drift = %v", fast.Drift())
	}
}

func TestExecutedCounter(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 5; i++ {
		k.Schedule(Time(i)*Millisecond, func() {})
	}
	tm := k.Schedule(6*Millisecond, func() {})
	tm.Cancel()
	k.RunUntilIdle()
	if k.Executed() != 5 {
		t.Fatalf("Executed = %d, want 5 (canceled events must not count)", k.Executed())
	}
}

func TestTickerStopsItselfInsideCallback(t *testing.T) {
	k := NewKernel(1)
	count := 0
	var tk *Ticker
	var err error
	tk, err = k.Every(10*Millisecond, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RunFor(Second)
	if count != 3 {
		t.Fatalf("self-stopping ticker fired %d times, want 3", count)
	}
}

func TestPendingCount(t *testing.T) {
	k := NewKernel(1)
	if k.Pending() != 0 {
		t.Fatal("fresh kernel has pending events")
	}
	k.Schedule(Millisecond, func() {})
	k.Schedule(2*Millisecond, func() {})
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d", k.Pending())
	}
	k.RunUntilIdle()
	if k.Pending() != 0 {
		t.Fatalf("Pending after drain = %d", k.Pending())
	}
}

func TestSeedAccessor(t *testing.T) {
	if got := NewKernel(42).Seed(); got != 42 {
		t.Fatalf("Seed() = %d, want 42", got)
	}
}

// A Timer held across its event's firing must not be able to cancel or
// observe the event struct after the kernel recycles it for a later
// callback: the seq fence makes stale handles inert.
func TestStaleTimerCannotTouchRecycledEvent(t *testing.T) {
	k := NewKernel(1)
	stale := k.Schedule(Millisecond, func() {})
	if !k.Step() {
		t.Fatal("no event to step")
	}
	// The freed struct is reused for the next scheduled event.
	fired := false
	fresh := k.Schedule(Millisecond, func() { fired = true })
	if stale.Pending() {
		t.Fatal("stale timer reports pending after reuse")
	}
	if stale.Cancel() {
		t.Fatal("stale timer canceled a recycled event")
	}
	if !fresh.Pending() {
		t.Fatal("fresh timer lost its event to a stale handle")
	}
	k.RunUntilIdle()
	if !fired {
		t.Fatal("recycled event never fired")
	}
}

// Steady-state scheduling must not allocate: fired events are recycled
// through the kernel's free list.
func TestScheduleStepDoesNotAllocateSteadyState(t *testing.T) {
	k := NewKernel(1)
	fn := func() {}
	k.Schedule(Microsecond, fn)
	k.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		k.Schedule(Microsecond, fn)
		k.Step()
	})
	if allocs > 0 {
		t.Fatalf("Schedule+Step allocates %.1f objects/op in steady state, want 0", allocs)
	}
}

func TestKernelMarkRollback(t *testing.T) {
	k := NewKernel(1)
	var fired []int
	k.At(10, func() { fired = append(fired, 1) })
	k.Run(20)
	mark := k.Mark()
	k.At(30, func() { fired = append(fired, 2) })
	k.At(40, func() { fired = append(fired, 3) })
	k.Run(35)
	if len(fired) != 2 || k.Executed() != 2 {
		t.Fatalf("pre-rollback state wrong: fired=%v executed=%d", fired, k.Executed())
	}
	k.Rollback(mark)
	if k.Now() != 20 || k.Executed() != 1 || k.Pending() != 0 {
		t.Fatalf("rollback wrong: now=%v executed=%d pending=%d",
			k.Now(), k.Executed(), k.Pending())
	}
	// Re-seeding and re-running counts the replayed event exactly once.
	k.At(30, func() { fired = append(fired, 2) })
	k.Run(50)
	if k.Executed() != 2 {
		t.Fatalf("replay executed count wrong: %d", k.Executed())
	}
}
