package repro.core.group

import repro.core.viewgen.{Plan, ViewId}

/** Builds the multi-output view groups of a plan in execution order, and the
  * dependency graph over them (paper Fig. 2 right).
  */
object DependencyGraph {

  /** Groups of a plan in plan order: the directional groups by their first
    * view in `plan.views`, then the output groups by their first query.
    * `plan.views` lists every view after the views it reads, and a group's
    * members share one incoming set, so each group comes after every group
    * whose views it reads.
    */
  def groups(plan: Plan): Seq[ViewGroup] =
    Plan.inOrder(plan.views)(v => (v.id.from, v.id.to, v.incoming.toSet))
      .map(vs => ViewGroup(vs.head.id.from, Some(vs.head.id.to), vs, Nil)) ++
      plan.outputGroups.map(outs => ViewGroup(outs.head.root, None, Nil, outs))

  /** Directed edges (producer -> consumer) between groups. */
  def edges(gs: Seq[ViewGroup]): Seq[(ViewGroup, ViewGroup)] = {
    val producerOf: Map[ViewId, ViewGroup] =
      gs.flatMap(g => g.produced.map(_ -> g)).toMap
    for {
      consumer <- gs
      dep <- consumer.incoming.map(producerOf).distinct
    } yield (dep, consumer)
  }
}
