package repro.core.group

import scala.collection.mutable

import repro.core.viewgen.{Plan, ViewId}

/** Builds the dependency graph of multi-output view groups for a plan and a
  * topological execution order over it (paper Fig. 2 right).
  */
object DependencyGraph {

  /** Groups of a plan, in a valid execution order (dependencies first). */
  def groups(plan: Plan): Seq[ViewGroup] = {
    val viewGroups = plan.views
      .groupBy(v => (v.id.from, v.id.to, v.incoming.toSet))
      .map { case ((from, to, _), vs) => ViewGroup(from, Some(to), vs, Nil) }
      .toSeq
    val outputGroups = plan.outputGroups.map(outs => ViewGroup(outs.head.root, None, Nil, outs))
    topoSort(viewGroups ++ outputGroups)
  }

  /** Directed edges (producer -> consumer) between groups. */
  def edges(gs: Seq[ViewGroup]): Seq[(ViewGroup, ViewGroup)] = {
    val producerOf: Map[ViewId, ViewGroup] =
      gs.flatMap(g => g.produced.map(_ -> g)).toMap
    for {
      consumer <- gs
      dep <- consumer.incoming.map(producerOf).distinct
    } yield (dep, consumer)
  }

  private def topoSort(gs: Seq[ViewGroup]): Seq[ViewGroup] = {
    val producerOf: Map[ViewId, ViewGroup] =
      gs.flatMap(g => g.produced.map(_ -> g)).toMap
    val sorted = mutable.LinkedHashSet.empty[ViewGroup]
    val visiting = mutable.Set.empty[ViewGroup]
    def visit(g: ViewGroup): Unit = {
      if (sorted.contains(g)) return
      require(!visiting.contains(g), s"cycle through group ${g.label}")
      visiting += g
      g.incoming.map(producerOf).distinct.foreach(visit)
      visiting -= g
      sorted += g
    }
    // Deterministic order: directional groups as encountered, then outputs.
    gs.foreach(visit)
    sorted.toSeq
  }
}
