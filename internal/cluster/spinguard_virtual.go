//go:build goexperiment.synctest

package cluster

// spinGuard is 0 under GOEXPERIMENT=synctest: a spin never lets a bubble's
// virtual clock advance, so every kernel sleeps on the worker's timer and
// a bubbled run executes in virtual time.
const spinGuard = 0
