package perfmodel

// OnlineRate is the runtime companion to the offline fit: an
// exponentially weighted moving average of a rate measured on the host
// (e.g. ns per MCU of one pipeline stage). It is the wall-clock analog
// of the partition package's Equation (16)/(17) feedback correction,
// without the offline half: the fit predicts the simulated platform,
// not the host, so a scheduler learns its rates from what it measures
// alone.
//
// The zero value is empty; Value returns 0 until the first Observe.
// OnlineRate is not goroutine-safe — callers serialize access (the
// batch scheduler updates it under its scheduling lock).
type OnlineRate struct {
	v float64
}

// onlineAlpha is the EWMA smoothing factor: each observation moves the
// estimate a quarter of the way, forgiving one noisy band without going
// numb to real drift (GC pauses, frequency scaling, corpus shifts).
const onlineAlpha = 0.25

// Observe folds one measurement into the estimate; the first one
// becomes the estimate as it is.
func (r *OnlineRate) Observe(x float64) {
	if x <= 0 {
		return
	}
	if r.v == 0 {
		r.v = x
		return
	}
	r.v += onlineAlpha * (x - r.v)
}

// Value returns the current estimate (0 before the first Observe).
func (r *OnlineRate) Value() float64 { return r.v }

// rateSlots is the number of keys a RateSet holds: the most any caller
// needs is one per decode scale.
const rateSlots = 4

// RateSet keys an OnlineRate by a small slot number: one class of work
// whose cost per unit differs from the others' by a large factor (a
// decode scale, an entropy class, an encoder configuration). Folding
// the classes into one EWMA would let a burst of one wreck the
// estimate of the others; each slot learns on its own, and Max gives
// the conservative rate for sizing shared resources under mixed
// traffic. Callers map their keys onto slots 0 to 3; a slot out of
// range shares slot 0.
//
// Like OnlineRate, the zero value is ready to use and access must be
// serialized by the caller.
type RateSet struct {
	rates [rateSlots]OnlineRate
}

// At returns the rate of a slot.
func (r *RateSet) At(slot int) *OnlineRate {
	if slot < 0 || slot >= rateSlots {
		slot = 0
	}
	return &r.rates[slot]
}

// Max returns the largest current estimate across slots (0 when none
// has been observed).
func (r *RateSet) Max() float64 {
	var m float64
	for i := range r.rates {
		if v := r.rates[i].Value(); v > m {
			m = v
		}
	}
	return m
}
