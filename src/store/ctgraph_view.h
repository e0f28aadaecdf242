#ifndef RFIDCLEAN_STORE_CTGRAPH_VIEW_H_
#define RFIDCLEAN_STORE_CTGRAPH_VIEW_H_

#include "store/ct_store.h"

/// \file
/// A graph loaded from a blob (CtStoreReader::LoadView, DecodeCtGraphBlob)
/// is a CtGraph. This alias exists for out-of-tree code that includes this
/// header and names the type (perfbench/); tools/lint_includes.py rule 5
/// keeps the repository itself from using it.

namespace rfidclean::store {

using CtGraphView = CtGraph;

}  // namespace rfidclean::store

#endif  // RFIDCLEAN_STORE_CTGRAPH_VIEW_H_
