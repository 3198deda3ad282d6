// Fixture for the marker audit (lint.AuditSuppressions): every //flash:
// marker must be one some analyzer reads, and a //flash:allow waiver must
// name its analyzer and give a reason. A marker runs to the end of its line,
// so each expected finding is a block-comment want in front of the marker.
package markers

// Clean: every marker name an analyzer reads, in the form it reads it.
//
//flash:hotpath
func hot() {}

//flash:amortized allocates once per superstep, not per element
func amortized() {}

//flash:phase(compute)
func compute() {}

//flash:phase(sync,barrier)
func exchange() {}

//flash:deterministic
func ordered() {}

//flash:blockowner
func owner() []byte { return nil }

//flash:immutable
type frozen struct {
	cur []float64 //flash:slot-indexed
}

func waived() int {
	x := 0 //flash:allow hotalloc the fixture has no hot path to allocate on
	//flash:allow commerr a waiver on the line above its finding is read too
	return x
}

// A waiver without a reason records nothing.
func reasonless() int {
	x := 0 /* want `//flash:allow without "<analyzer> <reason>"` */ //flash:allow hotalloc
	/* want `//flash:allow without` */ //flash:allow
	return x
}

// A typo switches hotalloc off for the function without a word.
//
/* want `unknown marker //flash:hotpth: no analyzer reads it` */ //flash:hotpth
func typo() {
}

// Retired markers read by nothing: the sharedmut sanctions, the slot-table
// launder, the fresh-result claim and the commerr-only waiver.
//
/* want `unknown marker //flash:mutator` */ //flash:mutator
func rebuild(f *frozen) {
	f.cur = nil
}

/* want `unknown marker //flash:privatizes` */ //flash:privatizes
func privatize() {
}

/* want `unknown marker //flash:slot-launder` */ //flash:slot-launder
func slotOf(v uint32) int {
	return int(v)
}

/* want `unknown marker //flash:fresh` */ //flash:fresh
func build() *frozen {
	return &frozen{}
}

func shutdown() {
	/* want `unknown marker //flash:ignore-err` */ //flash:ignore-err best-effort during shutdown
}
