package repro.ged

import repro.core.GbdaOps
import repro.graphs.LabeledGraph

/** Cheap GED bounds used to certify the known-GED synthetic generator
  * (Appendix F) and to prove cross-family separation in the Syn datasets.
  */
object GedBounds {

  /** Lower bound `dV + dE ≤ GED`, with dV and dE the multiset distances
    * ([[GbdaOps.gbdFromSortedBranches]]) of the vertex-label and edge-label
    * multisets: each of the six edit operations changes one of the two
    * multisets (never both — DV only removes *isolated* vertices), and by at
    * most one element.
    */
  def labelLowerBound(g1: LabeledGraph, g2: LabeledGraph): Int =
    GbdaOps.gbdFromSortedBranches(g1.vertexLabels.sorted, g2.vertexLabels.sorted) +
      GbdaOps.gbdFromSortedBranches(g1.edges.map(_.label).sorted, g2.edges.map(_.label).sorted)
}
