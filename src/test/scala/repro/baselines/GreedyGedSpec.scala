package repro.baselines

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs.{edgeless, g1, g2, randomSmall}
import repro.ged.ExactGed

import scala.util.Random

class GreedyGedSpec extends AnyFunSuite {

  test("greedy assignment is a permutation") {
    val rng = new Random(1)
    val c = Array.fill(9, 9)(rng.nextDouble())
    val assign = GreedyGed.greedyAssignment(c)
    assert(assign.sorted.toSeq == (0 until 9))
  }

  for (seed <- 1 to 15)
    test(s"greedy assignment cost >= Hungarian optimum (seed=$seed)") {
      val rng = new Random(seed)
      val n = 3 + rng.nextInt(8)
      val c = Array.fill(n, n)(rng.nextDouble() * 10)
      val greedy = GreedyGed.greedyAssignment(c).zipWithIndex.map { case (j, i) => c(i)(j) }.sum
      val (_, opt) = Hungarian.solve(c)
      assert(greedy >= opt - 1e-9, s"greedy=$greedy opt=$opt")
    }

  test("greedy picks the global minimum entry first") {
    val c = Array(
      Array(5.0, 1.0),
      Array(2.0, 9.0))
    val assign = GreedyGed.greedyAssignment(c)
    assert(assign.toSeq == Seq(1, 0)) // entry (0,1)=1 first, then (1,0)=2
  }

  test("estimate on identical graphs is 0") {
    assert(GreedyGed.estimate(g1, g1) == 0)
  }

  test("estimate on the running example is a GED upper bound") {
    assert(GreedyGed.estimate(g1, g2) >= 3)
  }

  for (seed <- 1 to 15)
    test(s"Greedy-Sort-GED estimate is a valid GED upper bound (seed=$seed)") {
      val a = randomSmall(seed + 700, 3 + seed % 4)
      val b = randomSmall(seed + 800, 3 + (seed + 1) % 4)
      assert(GreedyGed.estimate(a, b) >= ExactGed.compute(a, b))
    }

  test("memory guard throws GraphTooLargeException") {
    val (a, b) = (edgeless(1, BipartiteGed.MaxN / 2 + 1), edgeless(2, BipartiteGed.MaxN / 2))
    intercept[GraphTooLargeException](GreedyGed.estimate(a, b))
  }
}
