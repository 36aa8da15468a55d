package graph

// OracleKShortestPathsWeighted is the unpruned reference Yen, exported to
// the external tests that run it on a topology (the topology package
// imports this one, so only an external test can import it).
var OracleKShortestPathsWeighted = oracleKShortestPathsWeighted
