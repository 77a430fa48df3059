package index

// Hooks for the external tests of this directory (package index_test),
// which need packages that import index and so cannot be internal tests.

// VerifyRef is verifyRef, the per-component reference verifier.
func (fz *Frozen) VerifyRef() error { return fz.verifyRef() }

// MutationSize, MutateArrays and CloneArrays are the mutation script of
// FuzzFrozenArrays and the array copy it mutates.
const MutationSize = mutationSize

var (
	MutateArrays = mutateArrays
	CloneArrays  = cloneArrays
)
