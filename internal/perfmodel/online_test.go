package perfmodel

import "testing"

func TestRateSetSlotIsolation(t *testing.T) {
	var r RateSet
	if v := r.Max(); v != 0 {
		t.Errorf("empty Max() = %v, want 0", v)
	}
	r.At(0).Observe(100)
	r.At(2).Observe(900)

	if v := r.At(0).Value(); v != 100 {
		t.Errorf("slot 0 rate = %v, want 100", v)
	}
	if v := r.At(1).Value(); v != 0 {
		t.Errorf("slot 1 rate = %v, want 0 (never observed)", v)
	}
	if v := r.At(2).Value(); v != 900 {
		t.Errorf("slot 2 rate = %v, want 900", v)
	}
	if v := r.Max(); v != 900 {
		t.Errorf("Max() = %v, want 900", v)
	}

	// Out-of-range slots alias slot 0 instead of panicking.
	for _, slot := range []int{-1, rateSlots, 99} {
		if got := r.At(slot).Value(); got != 100 {
			t.Errorf("slot %d = %v, want slot 0's 100", slot, got)
		}
	}
}

func TestOnlineRateEWMA(t *testing.T) {
	var r OnlineRate
	r.Observe(0)
	r.Observe(-5)
	if v := r.Value(); v != 0 {
		t.Errorf("non-positive observations moved the rate to %v", v)
	}
	r.Observe(100)
	if v := r.Value(); v != 100 {
		t.Errorf("first observation = %v, want 100", v)
	}
	r.Observe(200)
	if v := r.Value(); v != 100+onlineAlpha*100 {
		t.Errorf("second observation = %v, want %v", v, 100+onlineAlpha*100)
	}
}
