package main

import "securewebcom/internal/netserve"

// The HTTP limits TestAuthzdServerLimits probes are the ones
// netserve.NewHTTPServer gives the daemon's listener.
const (
	readHeaderTimeout = netserve.ReadHeaderTimeout
	maxHeaderBytes    = netserve.MaxHeaderBytes
)
