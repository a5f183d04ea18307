package fault

import "math/rand"

// The paper's §6.2/§6.3 error-rate scenarios, expressed as event schedules.
// All index choices are deterministic given the seed so experiments are
// reproducible run-to-run.

// Scenario1 returns the low-error-rate schedule: one arithmetic error in an
// MVM at a random iteration of the whole execution (I iterations).
func Scenario1(totalIters int, seed int64) []Event {
	rng := rand.New(rand.NewSource(seed))
	if totalIters < 1 {
		totalIters = 1
	}
	return []Event{{
		Iteration: rng.Intn(totalIters),
		Site:      SiteMVM,
		Kind:      Arithmetic,
		Index:     -1,
	}}
}

// Scenario2 returns the medium/high-error-rate schedule: one arithmetic
// error in an MVM every cd iterations (at a random offset within each
// checkpoint interval).
func Scenario2(totalIters, cd int, seed int64) []Event {
	rng := rand.New(rand.NewSource(seed))
	if cd < 1 {
		cd = 1
	}
	var events []Event
	for start := 0; start < totalIters; start += cd {
		span := cd
		if start+span > totalIters {
			span = totalIters - start
		}
		events = append(events, Event{
			Iteration: start + rng.Intn(span),
			Site:      SiteMVM,
			Kind:      Arithmetic,
			Index:     -1,
		})
	}
	return events
}

// Scenario3 returns the extreme-error-rate schedule: one arithmetic error
// in the MVM of every iteration. Under this schedule the basic online ABFT
// scheme never terminates (Table 4), which callers must bound with
// MaxRollbacks.
func Scenario3(totalIters int) []Event {
	events := make([]Event, 0, totalIters)
	for i := 0; i < totalIters; i++ {
		events = append(events, Event{
			Iteration: i,
			Site:      SiteMVM,
			Kind:      Arithmetic,
			Index:     -1,
		})
	}
	return events
}

// MultiError returns the §6.3.3 high-error-rate schedule: k arithmetic
// errors striking MVMs in k distinct checkpoint intervals, plus one error in
// a randomly selected VLO. Fig. 10 uses k ∈ {4, 2, 1}.
func MultiError(k, cd, totalIters int, withVLO bool, seed int64) []Event {
	rng := rand.New(rand.NewSource(seed))
	if cd < 1 {
		cd = 1
	}
	intervals := totalIters / cd
	if intervals < 1 {
		intervals = 1
	}
	if k > intervals {
		k = intervals
	}
	// Choose k distinct intervals.
	perm := rng.Perm(intervals)[:k]
	var events []Event
	for _, iv := range perm {
		lo := iv * cd
		span := cd
		if lo+span > totalIters {
			span = totalIters - lo
		}
		if span < 1 {
			span = 1
		}
		events = append(events, Event{
			Iteration: lo + rng.Intn(span),
			Site:      SiteMVM,
			Kind:      Arithmetic,
			Index:     -1,
		})
	}
	if withVLO && totalIters > 0 {
		events = append(events, Event{
			Iteration: rng.Intn(totalIters),
			Site:      SiteVLO,
			Kind:      Arithmetic,
			Index:     -1,
		})
	}
	return events
}
