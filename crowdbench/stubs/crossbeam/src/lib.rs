//! Empty: `crowddb-platform` declares crossbeam but imports nothing from it.
