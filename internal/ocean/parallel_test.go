package ocean

import (
	"testing"

	"esse/internal/grid"
	"esse/internal/rng"
)

func TestStepParallelBitIdenticalToSerial(t *testing.T) {
	for _, tasks := range []int{1, 2, 3, 4, 7, 17} { // 17 = NY+1: more bands than rows
		serial := testModel(42)
		parallel := testModel(42)
		for step := 0; step < 30; step++ {
			serial.Step()
			parallel.StepParallel(tasks)
		}
		ss := serial.State(nil)
		sp := parallel.State(nil)
		for i := range ss {
			if ss[i] != sp[i] {
				t.Fatalf("tasks=%d: state[%d] differs: %v vs %v", tasks, i, ss[i], sp[i])
			}
		}
	}
}

func TestStepParallelOneTaskDelegates(t *testing.T) {
	a := testModel(5)
	b := testModel(5)
	a.Step()
	b.StepParallel(1)
	sa, sb := a.State(nil), b.State(nil)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("StepParallel(1) differs from Step")
		}
	}
}

func TestStepParallelMoreTasksThanRows(t *testing.T) {
	g := grid.MontereyBay(8, 8, 3)
	m := New(DefaultConfig(g), rng.New(1))
	m.StepParallel(64) // must clamp, not crash
	if !stateFinite(m) {
		t.Fatal("non-finite state after over-subscribed parallel step")
	}
}

func TestRunParallelAdvancesTime(t *testing.T) {
	m := testModel(6)
	m.RunParallel(10, 3)
	want := 10 * m.Cfg.Dt
	if diff := m.Time() - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("time = %v, want %v", m.Time(), want)
	}
}

func stateFinite(m *Model) bool {
	for _, v := range m.State(nil) {
		if v != v || v > 1e300 || v < -1e300 {
			return false
		}
	}
	return true
}

func BenchmarkStepSerial48(b *testing.B) {
	g := grid.MontereyBay(48, 48, 6)
	m := New(DefaultConfig(g), rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

func BenchmarkStepParallel48x4(b *testing.B) {
	g := grid.MontereyBay(48, 48, 6)
	m := New(DefaultConfig(g), rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.StepParallel(4)
	}
}
