package exchange

import "errors"

// Sentinel errors wrapped by the errors this package constructs, so that
// errors.Is works through the full chain up to the public orchestra facade.
var (
	// ErrUnknownPeer reports a peer the engine's configuration does not
	// declare.
	ErrUnknownPeer = errors.New("exchange: unknown peer")
	// ErrUnknownRelation reports a relation the publishing peer's schema
	// does not declare.
	ErrUnknownRelation = errors.New("exchange: unknown relation")
	// ErrAlreadyApplied reports a transaction fed to Apply twice.
	ErrAlreadyApplied = errors.New("exchange: transaction already applied")
	// ErrBadState reports engine-snapshot bytes LoadState cannot read: a
	// wrong magic, a truncated or overlong section, a malformed union
	// database, or trailing bytes.
	ErrBadState = errors.New("exchange: malformed engine snapshot")
)
