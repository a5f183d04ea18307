// Package stalesuppresscase seeds stale and live //lint:ignore directives
// for the stalesuppress golden test, which runs the full analyzer set so
// directive usage is judged the way the repo gate judges it.
package stalesuppresscase

import "fmt"

// used still suppresses a live bannedcall finding: not stale.
func used() {
	//lint:ignore bannedcall the demo owns process stdout here
	fmt.Println("hello")
}

// staleOne excused a stdout write that has since been refactored away.
func staleOne() int {
	//lint:ignore bannedcall nothing here prints anymore
	return 1
}

// staleMulti names two categories; both analyzers ran and neither found
// anything, so the whole directive is stale.
//
//lint:ignore errdrop,bannedcall the risky call moved to checked helpers
func staleMulti() {}

// tombstone shows a suppressed stalesuppress finding: the stale errdrop
// directive below is excused by the stalesuppress directive above it.
func tombstone() int {
	//lint:ignore stalesuppress kept as a tombstone until the next refactor lands
	//lint:ignore errdrop the dropped error is scheduled to return here
	return 2
}
