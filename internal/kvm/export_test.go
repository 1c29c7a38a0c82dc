package kvm

// CheckFrames is the frame-accounting pass, for the external tests.
var CheckFrames = checkFrames
