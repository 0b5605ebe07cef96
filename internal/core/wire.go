package core

// Message kind tags for this package's protocols. Kinds only need to be
// distinct within a single engine run, but keeping one flat namespace per
// package makes collisions impossible as protocols evolve. Each message
// type has a plain encoder and a read… function next to its protocol. A
// Run carries only its own protocol's messages, so a protocol with one
// message type reads its inbox without checking kinds.
const (
	kindWalkToken uint16 = iota + 1
	// Kind 2 stays empty so the kinds below keep the numbers the codec
	// tests pin.
	_
	kindDestReport
	kindRegenToken
	kindSampleRequest
	kindSampleAnnounce
	kindSampleCand
	kindSampleResult
)
