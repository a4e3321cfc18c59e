// RunRoundsUntil is a header-only template; the shared
// ShuffledAliveOrder helper lives with the round kernel
// (sim/round_kernel.cc) since Environment API v2.
