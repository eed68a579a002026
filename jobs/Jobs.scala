package repro.jobs

import org.apache.spark.sql.SparkSession

/** Shared spark-submit bootstrap for the per-table jobs: builds a local
  * session and parses the scale factor from args(0) (default 0.1).
  */
object JobRunner {
  /** The session settings of every job, bench and test: `local[*]`, one
    * shuffle partition per core of the driver (what `local[*]` runs at once)
    * unless the environment says otherwise, no automatic broadcast, and no
    * adaptive execution. Every plan is static: the engine fixes each join's
    * strategy itself (a broadcast hint on the smaller side, by the
    * relations' sizes), so re-planning at run time has nothing to decide but
    * the partition count, and it costs a pause after every stage wave. One
    * partition per core keeps every reduce stage to one wave of tasks.
    */
  def builder(appName: String): SparkSession.Builder =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.shuffle.partitions",
        sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", Runtime.getRuntime.availableProcessors.toString))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.sql.adaptive.enabled", false)

  def withSpark(args: Array[String])(body: (SparkSession, Double) => Unit): Unit = {
    val sf = args.headOption.map(_.toDouble).getOrElse(0.1)
    val spark = builder("lmfao-repro").getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try body(spark, sf)
    finally spark.stop()
  }
}

/** T1: batch sizes and sharing statistics. `spark-submit --class repro.jobs.T1SharingJob … [sf]` */
object T1SharingJob {
  def main(args: Array[String]): Unit =
    JobRunner.withSpark(args)((s, sf) => println(repro.exp.T1Sharing.run(s, sf).render))
}

/** T2: aggregate-batch runtime, LMFAO vs baselines. */
object T2BatchRuntimeJob {
  def main(args: Array[String]): Unit =
    JobRunner.withSpark(args)((s, sf) => println(repro.exp.T2BatchRuntime.run(s, sf).render))
}

/** T3: end-to-end linear regression, Σ-once vs scan-per-iteration. */
object T3LinRegJob {
  def main(args: Array[String]): Unit =
    JobRunner.withSpark(args)((s, sf) => println(repro.exp.T3LinReg.run(s, sf).render))
}

/** T4: CART node batches, LMFAO vs per-feature jobs. */
object T4DecisionTreeJob {
  def main(args: Array[String]): Unit =
    JobRunner.withSpark(args)((s, sf) => println(repro.exp.T4DecisionTree.run(s, sf).render))
}

/** T5: Rk-means coreset size and clustering quality. */
object T5RkMeansJob {
  def main(args: Array[String]): Unit =
    JobRunner.withSpark(args)((s, sf) => println(repro.exp.T5RkMeans.run(s, sf).render))
}
